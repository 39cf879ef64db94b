package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
)

// HashConfig fingerprints run configs for Manifest.ConfigHash: FNV-1a
// over a reflective walk folding every field under its name, exported
// or not. The only exclusion is a `checkpoint:"-"` tag, for fields that
// cannot change output (Workers, output directories, derived state).
// Strings, slices and arrays are length-prefixed; pointers and
// interfaces fold a nil marker, the dynamic type name, then the element.
// A map, func, chan or unsafe pointer panics with its field path, so a
// config that cannot be hashed fails every test that builds it.
func HashConfig(cfgs ...any) uint64 {
	var b []byte
	for _, c := range cfgs {
		b = appendValue(b, fmt.Sprintf("%T", c), reflect.ValueOf(c))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// appendString appends s length-prefixed, so ("ab","c") and ("a","bc")
// differ.
func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

func appendValue(b []byte, path string, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Invalid:
		return append(b, 0)
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return appendString(b, v.String())
	case reflect.Slice, reflect.Array:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = appendValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
		return b
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendValue(appendString(append(b, 1), v.Elem().Type().String()), path, v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.Tag.Get("checkpoint") != "-" {
				b = appendValue(appendString(b, f.Name), path+"."+f.Name, v.Field(i))
			}
		}
		return b
	}
	panic(fmt.Sprintf("checkpoint: cannot hash config field %s of kind %s", path, v.Kind()))
}

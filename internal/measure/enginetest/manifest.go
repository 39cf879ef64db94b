package enginetest

import (
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
)

// ManifestCovers asserts the derived-manifest contract for one engine:
// changing any exported field of cfg changes manifest(cfg), and
// changing one tagged `checkpoint:"-"` does not. Fields are perturbed
// one at a time, descending into nested structs and each slice's first
// element: ints and floats +1, strings +"x", bools flipped, slices
// truncated (an empty one grows), pointers nil↔new. Interface fields
// have no generic perturbation and are left to engine-specific tests.
func ManifestCovers[C any](t *testing.T, cfg C, manifest func(C) checkpoint.Manifest) {
	t.Helper()
	base := manifest(cfg)
	// at finds the field in a copy of cfg, copying slices on the way.
	var walk func(name string, v reflect.Value, at func(*C) reflect.Value, excluded bool)
	walk = func(name string, v reflect.Value, at func(*C) reflect.Value, excluded bool) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					walk(name+"."+f.Name, v.Field(i), func(c *C) reflect.Value { return at(c).Field(i) },
						excluded || f.Tag.Get("checkpoint") == "-")
				}
			}
			return
		case reflect.Slice:
			if v.Len() > 0 {
				walk(name+"[0]", v.Index(0), func(c *C) reflect.Value {
					s := at(c)
					cp := reflect.MakeSlice(s.Type(), s.Len(), s.Len())
					reflect.Copy(cp, s)
					s.Set(cp)
					return cp.Index(0)
				}, excluded)
			}
		}
		c := cfg
		if !perturb(at(&c)) {
			return
		}
		if changed := manifest(c) != base; changed == excluded {
			t.Errorf("changing %s: manifest changed = %v, want %v (tagged checkpoint:\"-\": %v)", name, changed, !excluded, excluded)
		}
	}
	walk(reflect.TypeOf(cfg).String(), reflect.ValueOf(cfg),
		func(c *C) reflect.Value { return reflect.ValueOf(c).Elem() }, false)
}

// perturb changes v in place, reporting false for kinds it cannot.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		if v.Len() > 0 {
			v.Set(v.Slice(0, v.Len()-1))
		} else {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	default:
		return false
	}
	return true
}

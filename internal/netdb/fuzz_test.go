package netdb

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzDecodeRouterInfo feeds DecodeRouterInfo arbitrary record bodies
// sealed with a valid integrity tag — without the tag nearly every input
// would stop at ErrBadChecksum. Whatever the decoder accepts must
// re-encode to exactly the bytes it was given. The seeds are the bodies
// of a known-IP record, a firewalled record with an introducer, and a
// truncated known-IP body.
func FuzzDecodeRouterInfo(f *testing.F) {
	for _, ri := range []*RouterInfo{sampleRouterInfo(), sampleFirewalledRouterInfo()} {
		data, err := ri.Encode()
		if err != nil {
			f.Fatal(err)
		}
		body := data[:len(data)-HashSize]
		f.Add(body)
		if ri.HasKnownIP() {
			f.Add(body[:len(body)/2])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		tag := sha256.Sum256(body)
		data := append(body[:len(body):len(body)], tag[:]...)
		ri, err := DecodeRouterInfo(data)
		if err != nil {
			return
		}
		again, err := ri.Encode()
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decoded record re-encodes to different bytes:\n got %x\nwant %x", again, data)
		}
	})
}

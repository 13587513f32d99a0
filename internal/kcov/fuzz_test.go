package kcov

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// DecodeDelta is the one decoder every remote execution result crosses:
// each trace in a broker reply frame is a delta stream the host decodes.
// The fuzz target requires that it never panics on arbitrary bytes, that
// it never yields more PCs than it was given bytes (every PC costs at
// least one), and that Decode∘Encode is the identity on a trace
// reinterpreted from the same input bytes.
//
//	go test -run '^$' -fuzz '^FuzzDecodeDelta$' -fuzztime 10s ./internal/kcov/
func FuzzDecodeDelta(f *testing.F) {
	for _, trace := range [][]uint32{
		nil,
		{0xc0de0040},
		{math.MaxUint32, 0, math.MaxUint32},
		{0xc0de0400, 0xc0de0040, 0, 7, 7},
		{0x1000, 0x1004, 0x1008, 0x1004, 0x1008},
	} {
		f.Add(AppendDelta(nil, trace))
	}
	f.Add([]byte{0x80})                             // truncated varint
	f.Add([]byte{0x01})                             // negative first PC
	f.Add(append(bytes.Repeat([]byte{0x80}, 9), 2)) // over-long varint
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeDelta(nil, data)
		if len(dec) > len(data) {
			t.Fatalf("decoded %d PCs from %d bytes", len(dec), len(data))
		}
		if err == nil {
			if back, err := DecodeDelta(nil, AppendDelta(nil, dec)); err != nil || !slices.Equal(back, dec) {
				t.Fatalf("re-encoding a decoded stream does not round-trip: %v", err)
			}
		}
		trace := make([]uint32, len(data)/4)
		for i := range trace {
			trace[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		back, err := DecodeDelta(nil, AppendDelta(nil, trace))
		if err != nil {
			t.Fatalf("decode of an encoded trace failed: %v (trace %v)", err, trace)
		}
		if !slices.Equal(back, trace) {
			t.Fatalf("round trip changed the trace: %v -> %v", trace, back)
		}
	})
}

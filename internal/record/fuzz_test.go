package record

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// FuzzRecordCodec drives the codec from the field side: any record built
// from fuzzed fields must round-trip Marshal → Unmarshal to an identical
// record, the encoding must be exactly Size bytes, and re-encoding the
// decoded record must reproduce the same bytes. Boxes drawn around the
// record's coordinates (1-D and 2-D, seeded by the fuzzed fields) must
// judge the encoding with ContainsEncoded exactly as ContainsRecord judges
// the record.
func FuzzRecordCodec(f *testing.F) {
	f.Add(int64(0), int64(0), uint64(0), []byte{})
	f.Add(int64(-1), int64(1<<62), uint64(42), []byte("0123456789abcdef"))
	f.Add(int64(1<<30), int64(-1<<30), ^uint64(0), bytes.Repeat([]byte{0xa5}, PayloadSize+8))
	f.Fuzz(func(t *testing.T, key, amount int64, seq uint64, payload []byte) {
		r := Record{Key: key, Amount: amount, Seq: seq}
		copy(r.Payload[:], payload)

		buf := make([]byte, Size)
		if n := r.Marshal(buf); n != Size {
			t.Fatalf("Marshal wrote %d bytes, want %d", n, Size)
		}
		var got Record
		got.Unmarshal(buf)
		if got != r {
			t.Fatalf("round-trip mismatch:\n in: %+v\nout: %+v", r, got)
		}
		buf2 := make([]byte, Size)
		got.Marshal(buf2)
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("re-encoding the decoded record changed the bytes")
		}

		rng := rand.New(rand.NewPCG(seq, uint64(key)^uint64(amount)))
		bound := func(c int64) int64 {
			if rng.IntN(4) == 0 {
				return c // on the edge
			}
			return c + rng.Int64N(9) - 4
		}
		for i := 0; i < 16; i++ {
			dims := []Range{{Lo: bound(key), Hi: bound(key)}, {Lo: bound(amount), Hi: bound(amount)}}
			if i%3 == 0 {
				dims[rng.IntN(2)] = FullRange()
			}
			for _, b := range []Box{NewBox(dims[0]), NewBox(dims...)} {
				if enc, dec := b.ContainsEncoded(buf), b.ContainsRecord(&r); enc != dec {
					t.Fatalf("box %v: ContainsEncoded %v, ContainsRecord %v for %+v", b, enc, dec, r)
				}
			}
		}
	})
}

// FuzzUnmarshalMarshal checks that decoding arbitrary bytes never panics
// and that decode-encode is the identity on any Size-byte buffer.
func FuzzUnmarshalMarshal(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0x00}, Size))
	f.Add(bytes.Repeat([]byte{0xff}, Size))
	seed := make([]byte, Size)
	for i := range seed {
		seed[i] = byte(i)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < Size {
			return
		}
		var r Record
		r.Unmarshal(data)
		out := make([]byte, Size)
		r.Marshal(out)
		if !bytes.Equal(out, data[:Size]) {
			t.Fatalf("decode-encode not identity")
		}
	})
}

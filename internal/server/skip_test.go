package server

import (
	"testing"
	"time"

	"sampleview/internal/record"
)

// countingStream serves left records, noting the backing array of every
// buffer AppendSample is handed.
type countingStream struct {
	left   int
	arrays []*record.Record
}

func (s *countingStream) AppendSample(dst []record.Record, n int) ([]record.Record, error) {
	if cap(dst) > 0 {
		s.arrays = append(s.arrays, &dst[:1][0])
	} else {
		s.arrays = append(s.arrays, nil)
	}
	for ; n > 0 && s.left > 0; n, s.left = n-1, s.left-1 {
		dst = append(dst, record.Record{Seq: uint64(s.left)})
	}
	return dst, nil
}

func (s *countingStream) Sample(n int) ([]record.Record, error) { return s.AppendSample(nil, n) }
func (s *countingStream) Close() error                          { return nil }
func (s *countingStream) SimNow() time.Duration                 { return 0 }

// sampleOnly hides AppendSample, like a wrapper that overrides only Sample.
type sampleOnly struct{ ViewStream }

// TestSkipToReusesScratch: a fast-forward longer than one chunk discards
// every chunk through the buffer the first chunk allocated, stops at the
// target or at exhaustion, and still works for a stream without
// AppendSample.
func TestSkipToReusesScratch(t *testing.T) {
	cs := &countingStream{left: 20_000}
	st := &servedStream{s: cs}
	if err := st.skipTo(10_000); err != nil {
		t.Fatal(err)
	}
	if got := st.pos.Load(); got != 10_000 {
		t.Fatalf("position %d after skip, want 10000", got)
	}
	if len(cs.arrays) != 3 || cs.arrays[0] != nil || cs.arrays[1] == nil || cs.arrays[2] != cs.arrays[1] {
		t.Fatalf("skip drew through %v, want a fresh buffer once and then one reused buffer", cs.arrays)
	}

	short := &servedStream{s: &countingStream{left: 5000}}
	if err := short.skipTo(10_000); err != nil || short.pos.Load() != 5000 {
		t.Fatalf("exhausting skip: pos %d err %v, want 5000 and nil", short.pos.Load(), err)
	}

	wrapped := &servedStream{s: sampleOnly{&countingStream{left: 20_000}}}
	if err := wrapped.skipTo(9000); err != nil || wrapped.pos.Load() != 9000 {
		t.Fatalf("Sample-only skip: pos %d err %v, want 9000 and nil", wrapped.pos.Load(), err)
	}
}

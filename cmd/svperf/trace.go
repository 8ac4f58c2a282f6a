package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sampleview"
	"sampleview/internal/lsm"
	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/shard"
)

// Span names. Client spans are recorded by the benchmark around its calls
// into server.Client / RemoteStream; source spans by the wrappers below,
// around the calls the server makes into the view it serves.
const (
	spanClientOpen  = "client.open"
	spanClientBatch = "client.next_batch"
	spanSourceOpen  = "source.open"
	spanSample      = "source.sample"
	spanInsert      = "source.insert"
	spanCommit      = "source.commit"
)

// span is one timed call at a layer boundary. Stream ties the spans of one
// sample stream together: client and server both know its predicate, so the
// predicate's text is the stream's identifier. Parent is the index of the
// enclosing span in the recorded list, or -1.
type span struct {
	Name    string `json:"name"`
	Stream  string `json:"stream,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Pages   int64  `json:"pages,omitempty"`   // pages the call read (Stream.Stats delta)
	Records int64  `json:"records,omitempty"` // records the call returned or wrote
	Levels  int64  `json:"levels,omitempty"`  // delta levels when a stream opened
	Seed    uint64 `json:"seed,omitempty"`    // seed of a seeded open
	Replica int    `json:"replica"`           // index of the server that recorded it
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// newTracer returns a tracer whose span buffer is allocated up front, for
// the reason newResult gives.
func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<17)} }

// add records a span that ran from start to now.
func (t *tracer) add(s span, start time.Time) {
	if t == nil {
		return
	}
	s.Start = int64(start.Sub(t.epoch))
	s.End = int64(time.Since(t.epoch))
	s.Parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// linkParents makes each span named child the child of the span named
// parent on the same stream that encloses it in time; where several do,
// the one that started last wins.
func linkParents(spans []span, parent, child string) {
	byStream := map[string][]int{}
	for i := range spans {
		if spans[i].Name == parent {
			byStream[spans[i].Stream] = append(byStream[spans[i].Stream], i)
		}
	}
	for _, idx := range byStream {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		c := &spans[i]
		if c.Name != child {
			continue
		}
		cands := byStream[c.Stream]
		// The last parent that started no later than the child.
		j := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > c.Start }) - 1
		for ; j >= 0; j-- {
			p := &spans[cands[j]]
			if p.End >= c.End {
				c.Parent = cands[j]
				break
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap each other
// are counted once, and a child's time outside its parent is not counted.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	cover := make([][]iv, len(spans))
	for i := range spans {
		p := spans[i].Parent
		if p < 0 {
			continue
		}
		lo, hi := max(spans[i].Start, spans[p].Start), min(spans[i].End, spans[p].End)
		if lo < hi {
			cover[p] = append(cover[p], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		ivs := cover[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		end := int64(-1 << 62)
		for _, v := range ivs {
			if v.lo > end {
				covered += v.hi - v.lo
				end = v.hi
			} else if v.hi > end {
				covered += v.hi - end
				end = v.hi
			}
		}
		self[i] = spans[i].dur() - covered
	}
	return self
}

// tracedSource wraps a served view so that every call the server makes
// into it is recorded as a span. It keeps the optional write and seeded
// surfaces of the view it wraps, so the server treats it exactly like the
// raw source.
type tracedSource struct {
	server.ViewSource
	w       server.WritableSource
	seeded  server.SeededSource
	levels  func() int
	tr      *tracer
	replica int
}

func traceLocal(v *sampleview.View, tr *tracer, replica int) *tracedSource {
	return newTracedSource(server.LocalSource(v), v.DeltaLevels, tr, replica)
}

func traceSharded(v *shard.View, tr *tracer) *tracedSource {
	return newTracedSource(server.ShardedSource(v), v.DeltaLevels, tr, 0)
}

func newTracedSource(src server.ViewSource, levels func() int, tr *tracer, replica int) *tracedSource {
	// The built-in adapters implement both surfaces (the server package
	// asserts it at compile time).
	w, _ := src.(server.WritableSource)
	seeded, _ := src.(server.SeededSource)
	return &tracedSource{ViewSource: src, w: w, seeded: seeded, levels: levels, tr: tr, replica: replica}
}

func (t *tracedSource) OpenStream(q record.Box) (server.ViewStream, error) {
	return t.open(q, 0, false)
}

func (t *tracedSource) OpenStreamSeeded(q record.Box, seed uint64) (server.ViewStream, error) {
	return t.open(q, seed, true)
}

func (t *tracedSource) open(q record.Box, seed uint64, seeded bool) (server.ViewStream, error) {
	levels := int64(t.levels())
	key := q.String()
	start := time.Now()
	var s server.ViewStream
	var err error
	if seeded {
		s, err = t.seeded.OpenStreamSeeded(q, seed)
	} else {
		s, err = t.ViewSource.OpenStream(q)
	}
	t.tr.add(span{Name: spanSourceOpen, Stream: key, Levels: levels, Seed: seed, Replica: t.replica}, start)
	if err != nil {
		return nil, err
	}
	return &tracedStream{ViewStream: s, key: key, tr: t.tr, replica: t.replica}, nil
}

func (t *tracedSource) Insert(rec record.Record) error {
	start := time.Now()
	err := t.w.Insert(rec)
	t.tr.add(span{Name: spanInsert, Records: 1, Replica: t.replica}, start)
	return err
}

func (t *tracedSource) Delete(rec record.Record) error { return t.w.Delete(rec) }
func (t *tracedSource) Flush() error                   { return t.w.Flush() }
func (t *tracedSource) WriteStats() lsm.WriteStats     { return t.w.WriteStats() }

func (t *tracedSource) Commit() error {
	start := time.Now()
	err := t.w.Commit()
	t.tr.add(span{Name: spanCommit, Replica: t.replica}, start)
	return err
}

// tracedStream records each batch the server draws from a stream, with the
// pages the draw read.
type tracedStream struct {
	server.ViewStream
	key     string
	tr      *tracer
	replica int
}

func (s *tracedStream) Sample(n int) ([]record.Record, error) {
	p0 := pagesRead(s.ViewStream)
	start := time.Now()
	recs, err := s.ViewStream.Sample(n)
	s.tr.add(span{Name: spanSample, Stream: s.key, Records: int64(len(recs)),
		Pages: pagesRead(s.ViewStream) - p0, Replica: s.replica}, start)
	return recs, err
}

// pagesRead is the number of pages a stream has read so far, from its own
// Stream.Stats counters.
func pagesRead(s server.ViewStream) int64 {
	switch st := s.(type) {
	case *sampleview.Stream:
		c := st.Stats().Counters
		return c.RandomReads + c.SequentialReads
	case *shard.Stream:
		c := st.Stats().Counters
		return c.RandomReads + c.SequentialReads
	}
	panic(fmt.Sprintf("svperf: stream type %T has no page counters", s))
}

package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"sync"
	"time"

	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/workload"
)

// selectivities is the paper's evaluation mix, cycled per stream.
var selectivities = []float64{0.0025, 0.025, 0.25}

const (
	samplesPerStream = 2000 // each analyst's sample budget
	batchSize        = 256  // records per NextBatch pull
	ttfTarget        = 1000 // the paper's time-to-k, k = 1000
	checkEvery       = 8    // every 8th stream of a reader is cross-checked

	// windows is how many equal windows a measured phase is cut into. Each
	// end-to-end metric is computed per window and reported as the median
	// over windows, so a disturbance that lasts less than two windows (a
	// neighbour's I/O burst on a shared host) does not move it.
	windows = 5
)

// checkedStream is a delivered stream kept for the post-run cross-check:
// its predicate and seed, how many records arrived and their digest.
type checkedStream struct {
	q      record.Box
	seed   uint64
	n      int
	digest uint64
}

// failures counts correctness failures and keeps the first few messages.
type failures struct {
	mu   sync.Mutex
	n    int64
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// obs is one timed operation: when it completed, as an offset from the
// phase start, how long it took, and how many records it carried.
type obs struct {
	at, d time.Duration
	n     int64
}

func durations(all []obs) []time.Duration {
	out := make([]time.Duration, len(all))
	for i, o := range all {
		out[i] = o.d
	}
	return out
}

// simMark is the servers' simulated-I/O account at one window boundary.
type simMark struct {
	simIO  time.Duration
	served int64
}

// phaseResult is what one timed load phase measured.
type phaseResult struct {
	dur       time.Duration
	attempted int64
	records   int64 // verified sample records delivered before the deadline
	streams   int64
	open      []obs
	batch     []obs // n: records in the batch
	ttf       []obs
	checked   []checkedStream

	appended int64 // records acked by appends whose ack came before the deadline
	acks     []obs // n: records appended
	lag      []obs

	marks []simMark // at the start and at the end of every window
}

// newResult allocates one connection's result buffers whole, before its
// phase starts. The servers share this process and the garbage collector
// paces itself on the live heap, so buffers that grew while a phase ran
// would slow its collections down as they filled.
func newResult() *phaseResult {
	return &phaseResult{
		open:  make([]obs, 0, 8192),
		batch: make([]obs, 0, 65536),
		ttf:   make([]obs, 0, 8192),
		acks:  make([]obs, 0, 8192),
		lag:   make([]obs, 0, 8192),
	}
}

// loadSpec is one phase's traffic: readers is the number of closed-loop
// reader connections, rate the writer's offered records per second.
type loadSpec struct {
	readers int
	rate    float64
	wbatch  int // records per append
	seed    uint64
	tr      *tracer
}

// readerTenant names reader i's tenant. The router places streams on its
// ring by (tenant, view), and with one view untenanted readers would all
// land on one replica; "reader-0" and "reader-1" own different replicas of
// a two-replica ring, so fleet-read spreads its readers the way distinct
// tenants do.
func readerTenant(i int) string { return fmt.Sprintf("reader-%d", i) }

// runPhase drives spec against e for dur and returns what it measured.
// Every reader and the writer dial their own connection before the clock
// starts and stop at the deadline.
func runPhase(e *env, spec loadSpec, dur time.Duration, fail *failures) (*phaseResult, error) {
	type conn struct {
		cl *server.Client
		rv *server.RemoteView
	}
	dial := func(tenant string) (conn, error) {
		cl, err := server.Dial(e.entry)
		if err != nil {
			return conn{}, err
		}
		if tenant != "" {
			if err := cl.SetTenant(tenant); err != nil {
				cl.Close()
				return conn{}, err
			}
		}
		rv, err := cl.OpenView(saleView)
		if err != nil {
			cl.Close()
			return conn{}, err
		}
		return conn{cl, rv}, nil
	}
	var conns []conn
	defer func() {
		for _, c := range conns {
			c.cl.Close()
		}
	}()
	for i := 0; i < spec.readers; i++ {
		c, err := dial(readerTenant(i))
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
	}
	var wc conn
	if spec.rate > 0 {
		c, err := dial("")
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
		wc = c
	}

	mark := func() simMark {
		t := e.serverTotals()
		return simMark{t.SimIO, t.RecordsServed}
	}
	marks := []simMark{mark()}
	start := time.Now()
	end := start.Add(dur)
	results := make([]*phaseResult, spec.readers+1)
	for i := range results {
		results[i] = newResult()
	}
	var wg sync.WaitGroup
	for i := 0; i < spec.readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := spec.seed*1_000_003 + uint64(i)*7919 + 1
			readLoop(results[i], conns[i].rv, seed, spec, start, end, fail)
		}(i)
	}
	if spec.rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writeLoop(results[spec.readers], e, wc.rv, spec, start, end, fail)
		}()
	}
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(w) / windows)))
		marks = append(marks, mark())
	}
	wg.Wait()
	out := &phaseResult{dur: dur, marks: marks}
	for _, r := range results {
		out.attempted += r.attempted
		out.records += r.records
		out.streams += r.streams
		out.open = append(out.open, r.open...)
		out.batch = append(out.batch, r.batch...)
		out.ttf = append(out.ttf, r.ttf...)
		out.checked = append(out.checked, r.checked...)
		out.appended += r.appended
		out.acks = append(out.acks, r.acks...)
		out.lag = append(out.lag, r.lag...)
	}
	return out, nil
}

// readLoop is one analyst: open a stream for the next predicate of the
// mix, pull batches until the sample budget is met, verify every record,
// repeat until the deadline.
func readLoop(res *phaseResult, rv *server.RemoteView, seed uint64, spec loadSpec, start, end time.Time, fail *failures) {
	qg := workload.NewQueryGen(seed)
	for op := 0; time.Now().Before(end); op++ {
		q := qg.Range1D(selectivities[op%len(selectivities)])
		key := q.String()
		check := op%checkEvery == checkEvery-1
		streamSeed := seed ^ uint64(op)<<20

		res.attempted++
		t0 := time.Now()
		var s *server.RemoteStream
		var err error
		if check {
			s, err = rv.QueryAt(q, streamSeed, 0)
		} else {
			s, err = rv.Query(q)
		}
		spec.tr.add(span{Name: spanClientOpen, Stream: key}, t0)
		if err != nil {
			fail.add("open stream %s: %v", key, err)
			continue
		}
		opened := time.Now()
		res.open = append(res.open, obs{at: opened.Sub(start), d: opened.Sub(t0)})
		res.streams++
		s.SetBatchSize(batchSize)

		seen := make(map[uint64]struct{}, samplesPerStream)
		h := fnv.New64a()
		var buf [record.Size]byte
		got := 0
		for got < samplesPerStream && time.Now().Before(end) {
			res.attempted++
			t1 := time.Now()
			recs, err := s.NextBatch()
			if errors.Is(err, io.EOF) {
				break
			}
			spec.tr.add(span{Name: spanClientBatch, Stream: key, Records: int64(len(recs))}, t1)
			if err != nil {
				fail.add("next batch %s: %v", key, err)
				break
			}
			done := time.Now()
			res.batch = append(res.batch, obs{at: done.Sub(start), d: done.Sub(t1), n: int64(len(recs))})
			for i := range recs {
				r := &recs[i]
				if !q.ContainsRecord(r) {
					fail.add("stream %s: record seq %d outside the predicate", key, r.Seq)
				}
				if _, dup := seen[r.Seq]; dup {
					fail.add("stream %s: duplicate seq %d", key, r.Seq)
				}
				seen[r.Seq] = struct{}{}
				if check {
					r.Marshal(buf[:])
					h.Write(buf[:])
				}
			}
			if got < ttfTarget && got+len(recs) >= ttfTarget {
				res.ttf = append(res.ttf, obs{at: done.Sub(start), d: done.Sub(t0)})
			}
			got += len(recs)
			res.records += int64(len(recs))
		}
		if err := s.Close(); err != nil {
			fail.add("close stream %s: %v", key, err)
		}
		if check && got > 0 {
			res.checked = append(res.checked, checkedStream{q: q, seed: streamSeed, n: got, digest: h.Sum64()})
		}
	}
}

// writeLoop is the open-loop writer: appends of spec.wbatch fresh records,
// due at a fixed rate whether or not earlier ones have been acked, with
// the first half of every third batch deleted again. Each append is timed
// from its due time.
func writeLoop(res *phaseResult, e *env, rv *server.RemoteView, spec loadSpec, start, end time.Time, fail *failures) {
	gap := interval(spec.wbatch, spec.rate)
	seq := e.nextSeq.Add(1 << 24) // a private Seq range for this phase
	rng := rand.New(rand.NewPCG(seq, seq^0x9e3779b97f4a7c15))
	batch := make([]record.Record, spec.wbatch)
	for i := int64(0); ; i++ {
		due := dueAt(start, i, gap)
		if !due.Before(end) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		for j := range batch {
			batch[j] = record.Record{Key: rng.Int64N(workload.KeyDomain), Amount: rng.Int64N(workload.KeyDomain), Seq: seq}
			seq++
		}
		if !writeOne(e, rv, batch, i, start, due, res, fail) {
			return
		}
		if t := time.Now(); t.Before(end) {
			res.appended += int64(len(batch))
		}
	}
}

// writeOne sends operation i of the schedule: one append, and for every
// third batch a delete of its first half. It reports whether the writer
// may continue.
func writeOne(e *env, rv *server.RemoteView, batch []record.Record, i int64, start, due time.Time, res *phaseResult, fail *failures) bool {
	res.attempted++
	sent := time.Now()
	res.lag = append(res.lag, obs{at: sent.Sub(start), d: lateness(due, sent)})
	n, err := rv.Append(batch)
	if err != nil {
		fail.add("append: %v", err)
		return false
	}
	acked := time.Now()
	res.acks = append(res.acks, obs{at: acked.Sub(start), d: ackLatency(due, acked), n: int64(n)})
	e.inserted.Add(int64(n))
	if n != len(batch) {
		fail.add("append acked %d of %d records", n, len(batch))
	}
	if i%3 == 2 {
		res.attempted++
		n, err := rv.Delete(batch[:len(batch)/2])
		if err != nil {
			fail.add("delete: %v", err)
			return false
		}
		e.deleted.Add(int64(n))
		if n != len(batch)/2 {
			fail.add("delete acked %d of %d records", n, len(batch)/2)
		}
	}
	return true
}

package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"time"

	"sampleview/internal/core"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/workload"
)

// detQueries is the length of the deterministic pass's query list.
const detQueries = 12

// detWrites is how many append batches mixed-ingest's deterministic pass
// lands before its queries, enough to cross the catalog's flush threshold
// once so the queries read through a memview and a delta level.
const detWrites = 48

// detBatch is the deterministic pass's append size, mixed-ingest's.
const detBatch = 128

// detCounts are the deterministic pass's exact counts. They depend only on
// the seed: one client, a fixed query list, seeded streams.
type detCounts struct {
	Streams   int64
	Samples   int64
	Pages     int64         // page reads charged to the served views
	Leaves    int64         // leaves a standalone core stream reads for the same list
	WireBytes int64         // response bytes the servers wrote
	SimIO     time.Duration // simulated disk time charged to the served streams
	Checksum  uint64        // digest of every delivered record, in order

	// core is the wall-clock time of the standalone core pass that counted
	// Leaves; it is the one figure here that does not repeat exactly.
	core coreRun
	// attempted counts the pass's operations, for the run's failure rate.
	attempted int64
}

func (d detCounts) String() string {
	return fmt.Sprintf("streams=%d samples=%d pages=%d leaves=%d wire_bytes=%d sim_io_ns=%d digest=%016x",
		d.Streams, d.Samples, d.Pages, d.Leaves, d.WireBytes, int64(d.SimIO), d.Checksum)
}

func (d detCounts) per1k(n int64) float64 { return float64(n) * 1000 / float64(d.Samples) }

// detQueryList is the deterministic pass's seeded predicate list, cycling
// the selectivity mix.
func detQueryList(seed uint64) []record.Box {
	qg := workload.NewQueryGen(seed ^ 0xde7e_0000)
	qs := make([]record.Box, detQueries)
	for i := range qs {
		qs[i] = qg.Range1D(selectivities[i%len(selectivities)])
	}
	return qs
}

// deterministicPass runs one client over the seeded query list (after, on
// mixed-ingest, a seeded write prefix) and returns its exact counts. Run it
// while nothing else uses the stack: the server's catalog maintenance then
// runs at the same points every time.
func deterministicPass(e *env, seed uint64, fail *failures) (detCounts, error) {
	var d detCounts
	cl, err := server.Dial(e.entry)
	if err != nil {
		return d, err
	}
	defer cl.Close()

	if e.workload == "mixed-ingest" {
		wv, err := cl.OpenView(saleView)
		if err != nil {
			return d, err
		}
		res := &phaseResult{}
		seq := e.nextSeq.Add(1 << 24)
		rng := rand.New(rand.NewPCG(seed, 0xd37))
		batch := make([]record.Record, detBatch)
		for i := int64(0); i < detWrites; i++ {
			for j := range batch {
				batch[j] = record.Record{Key: rng.Int64N(workload.KeyDomain), Amount: rng.Int64N(workload.KeyDomain), Seq: seq}
				seq++
			}
			now := time.Now()
			if !writeOne(e, wv, batch, i, now, now, res, fail) {
				return d, fmt.Errorf("deterministic pass: write %d failed", i)
			}
		}
		d.attempted += res.attempted
	}

	rv, err := cl.OpenView(saleView)
	if err != nil {
		return d, err
	}
	pages0, srv0 := e.pagesTotal(), e.settledTotals()
	h := fnv.New64a()
	var buf [record.Size]byte
	qs := detQueryList(seed)
	for i, q := range qs {
		d.attempted++
		s, err := rv.QueryAt(q, seed+uint64(i), 0)
		if err != nil {
			return d, err
		}
		s.SetBatchSize(batchSize)
		got := 0
		for got < samplesPerStream {
			d.attempted++
			recs, err := s.NextBatch()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				s.Close()
				return d, err
			}
			for j := range recs {
				if !q.ContainsRecord(&recs[j]) {
					fail.add("deterministic pass: record seq %d outside %s", recs[j].Seq, q)
				}
				recs[j].Marshal(buf[:])
				h.Write(buf[:])
			}
			got += len(recs)
		}
		if err := s.Close(); err != nil {
			return d, err
		}
		d.Streams++
		d.Samples += int64(got)
	}
	srv1 := e.settledTotals()
	d.Pages = e.pagesTotal() - pages0
	d.WireBytes = srv1.BytesWritten - srv0.BytesWritten
	d.SimIO = srv1.SimIO - srv0.SimIO
	d.Checksum = h.Sum64()
	if d.Samples == 0 {
		return d, fmt.Errorf("deterministic pass delivered no samples")
	}
	d.core, err = standaloneCore(e.baseFiles(), qs)
	d.Leaves = d.core.leaves
	return d, err
}

// openTree opens an ACE tree file standalone, on a private simulated disk,
// through the same pagefile backend the servers use.
func openTree(path string) (*pagefile.File, *core.Tree, error) {
	f, err := pagefile.OpenWith(iosim.New(iosim.DefaultModel()), path,
		pagefile.OpenOptions{Backend: pagefile.BackendPread})
	if err != nil {
		return nil, nil, err
	}
	t, err := core.Open(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, t, nil
}

// coreRun is what one standalone core pass read, and how long a pass took
// on average.
type coreRun struct {
	leaves, pages, samples int64
	elapsed                time.Duration
}

// standaloneCore runs the query list against the base ACE trees with
// standalone core streams, counting the leaves and pages the first pass
// reads, and repeats the pass until minTimed has gone by to time it.
func standaloneCore(files []string, qs []record.Box) (coreRun, error) {
	var total time.Duration
	var first coreRun
	for pass := 1; ; pass++ {
		r, err := corePass(files, qs)
		if err != nil {
			return r, err
		}
		if pass == 1 {
			first = r
		}
		total += r.elapsed
		if total >= minTimed {
			first.elapsed = total / time.Duration(pass)
			return first, nil
		}
	}
}

// corePass is one standalone core pass. A sharded view spreads a stream's
// budget evenly over its shards, so each of the files' streams draws
// samplesPerStream/len(files) records.
func corePass(files []string, qs []record.Box) (coreRun, error) {
	var r coreRun
	budget := samplesPerStream / len(files)
	for _, path := range files {
		f, t, err := openTree(path)
		if err != nil {
			return r, err
		}
		c0 := f.Sim().Counters()
		start := time.Now()
		for _, q := range qs {
			s, err := t.Query(q)
			if err != nil {
				f.Close()
				return r, err
			}
			for n := 0; n < budget; n++ {
				if _, err := s.Next(); err != nil {
					if errors.Is(err, io.EOF) {
						break
					}
					f.Close()
					return r, err
				}
				r.samples++
			}
			r.leaves += s.LeavesRead()
		}
		r.elapsed += time.Since(start)
		c := f.Sim().Counters()
		r.pages += c.RandomReads + c.SequentialReads - c0.RandomReads - c0.SequentialReads
		if err := f.Close(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// layerCosts are the standalone per-unit costs of the two bottom layers.
type layerCosts struct {
	readVerifyUsPerPage float64 // pagefile.File.ReadPayload, checksum included
	decodeNsPerRecord   float64 // record.AppendBatch
	recordsPerPage      int
}

// minTimed is how long each standalone measurement runs at least.
const minTimed = 200 * time.Millisecond

// measureLayerCosts times ReadPayload over as many leaf-data pages of the
// first base file as the deterministic pass read (at least 256), picked in
// a seeded order, and then a batch decode of the same pages' payloads.
func measureLayerCosts(path string, pages int64, seed uint64) (layerCosts, error) {
	var c layerCosts
	f, t, err := openTree(path)
	if err != nil {
		return c, err
	}
	defer f.Close()
	pages = min(max(pages, 256), t.DataPages())
	first := f.NumPages() - t.DataPages()
	rng := rand.New(rand.NewPCG(seed, 0x9a9e))
	order := make([]int64, pages)
	for i := range order {
		order[i] = first + rng.Int64N(t.DataPages())
	}
	c.recordsPerPage = f.PageSize() / record.Size

	buf := make([]byte, f.PageSize())
	payloads := make([][]byte, len(order))
	for i, pg := range order {
		p, err := f.ReadPayload(pg, buf)
		if err != nil {
			return c, err
		}
		payloads[i] = append([]byte(nil), p...)
	}
	var reads int64
	start := time.Now()
	for time.Since(start) < minTimed {
		for _, pg := range order {
			if _, err := f.ReadPayload(pg, buf); err != nil {
				return c, err
			}
		}
		reads += int64(len(order))
	}
	c.readVerifyUsPerPage = float64(time.Since(start)) / float64(time.Microsecond) / float64(reads)

	dst := make([]record.Record, 0, c.recordsPerPage)
	var decoded int64
	start = time.Now()
	for time.Since(start) < minTimed {
		for _, p := range payloads {
			dst = record.AppendBatch(dst[:0], p, c.recordsPerPage)
		}
		decoded += int64(len(payloads) * c.recordsPerPage)
	}
	c.decodeNsPerRecord = float64(time.Since(start)) / float64(decoded)
	if len(dst) != c.recordsPerPage {
		return c, fmt.Errorf("decode produced %d records, want %d", len(dst), c.recordsPerPage)
	}
	return c, nil
}

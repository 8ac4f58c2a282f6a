package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"sampleview/internal/lsm"
	"sampleview/internal/record"
	"sampleview/internal/server"
)

// digest hashes records in order.
func digest(recs []record.Record) uint64 {
	h := fnv.New64a()
	var buf [record.Size]byte
	for i := range recs {
		recs[i].Marshal(buf[:])
		h.Write(buf[:])
	}
	return h.Sum64()
}

// writeStats sums the write-path counters of the views readers sample.
func (e *env) writeStats() lsm.WriteStats {
	if e.shard != nil {
		return e.shard.WriteStats()
	}
	var w lsm.WriteStats
	for _, v := range e.sale {
		w.Add(v.WriteStats())
	}
	return w
}

// plainStats keeps what the per-layer metrics need from the untraced
// phase, so its sample buffers can be dropped before the traced phase.
type plainStats struct {
	batchMeanMs  float64
	acks, lag    dist
	lagMaxMs     float64
	ingestPerSec float64
}

func summarizePlain(p *phaseResult) plainStats {
	return plainStats{
		batchMeanMs:  summarize(ms(durations(p.batch)), 99).Mean,
		acks:         summarize(ms(durations(p.acks)), 99),
		lag:          summarize(ms(durations(p.lag)), 99),
		lagMaxMs:     maxOf(ms(durations(p.lag))),
		ingestPerSec: float64(p.appended) / p.dur.Seconds(),
	}
}

// tracedRun swaps traced wrappers in for the raw sources, repeats the
// measured phase with spans recorded into tr, writes the spans out, and
// derives the per-layer metrics. plain summarises the untraced phase, for
// the writer's figures and the tracing overhead.
func tracedRun(e *env, cfg config, spec loadSpec, tr *tracer, det detCounts, plain plainStats,
	fail *failures, w io.Writer) (map[string]metric, *phaseResult, error) {
	files := e.baseFiles()
	costs, err := measureLayerCosts(files[0], det.Pages/int64(len(files)), cfg.seed)
	if err != nil {
		return nil, nil, err
	}

	e.traceSources(tr)
	spec.tr = tr
	opened0 := streamsOpened(e)
	srv0, ws0 := e.serverTotals(), e.writeStats()
	ins0, del0 := e.inserted.Load(), e.deleted.Load()
	runtime.GC()
	p, err := runPhase(e, spec, cfg.seconds, fail)
	if err != nil {
		return nil, nil, err
	}
	srv1, ws1 := e.serverTotals(), e.writeStats()
	opened1 := streamsOpened(e)
	spans := tr.snapshot()
	printPhase(w, "traced", p, endToEnd(p))

	hop := 0.0
	if e.router != nil {
		if hop, err = measureHop(e, tr, cfg.seed, fail); err != nil {
			return nil, nil, err
		}
	}

	linkParents(spans, spanClientBatch, spanSample)
	linkParents(spans, spanClientOpen, spanSourceOpen)
	self := selfTimes(spans)
	var (
		batches, batchNs, batchSelf float64
		opens, openSelf             float64
		sampleNs, samplePages       float64
		srcOpens, srcOpenNs, levels float64
		inserts, insertNs           float64
		commits, commitNs           float64
	)
	for i := range spans {
		s := &spans[i]
		d := float64(s.dur())
		switch s.Name {
		case spanClientBatch:
			batches++
			batchNs += d
			batchSelf += float64(self[i])
		case spanClientOpen:
			opens++
			openSelf += float64(self[i])
		case spanSample:
			if s.Parent >= 0 {
				sampleNs += d
				samplePages += float64(s.Pages)
			}
		case spanSourceOpen:
			if s.Parent >= 0 {
				srcOpens++
				srcOpenNs += d
				levels += float64(s.Levels)
			}
		case spanInsert:
			inserts++
			insertNs += d
		case spanCommit:
			commits++
			commitNs += d
		}
	}
	per := func(sum, n float64) float64 {
		if n == 0 {
			return 0
		}
		return sum / n
	}
	const us = float64(time.Microsecond)
	batchUs := per(batchNs, batches) / us
	serverSelf := per(batchSelf, batches) / us
	sampleUs := per(sampleNs, batches) / us
	pagesPerBatch := per(samplePages, batches)
	pageUs := pagesPerBatch * costs.readVerifyUsPerPage
	decodeUs := pagesPerBatch * float64(costs.recordsPerPage) * costs.decodeNsPerRecord / 1000
	shuttle := sampleUs - pageUs - decodeUs
	// The standalone core pass prices core without the server or any
	// contention: its time per batch minus the page reads and decodes it
	// made. Unlike shuttle it is not derived from the served spans, so the
	// layer sum below can miss the traced batch time.
	perSample := float64(det.core.elapsed) / us / float64(det.core.samples)
	pagesPerSample := float64(det.core.pages) / float64(det.core.samples)
	coreAlone := batchSize * (perSample - pagesPerSample*(costs.readVerifyUsPerPage+
		float64(costs.recordsPerPage)*costs.decodeNsPerRecord/1000))
	openUs := per(srcOpenNs, srcOpens) / us

	sharded, gather := 0.0, 0.0
	if e.shard != nil {
		sharded, gather = sampleUs, openUs
	}
	opsPerFsync := 0.0
	if fs := ws1.WALFsyncs - ws0.WALFsyncs; fs > 0 {
		opsPerFsync = float64(e.inserted.Load()-ins0+e.deleted.Load()-del0) / float64(fs)
	}
	tracedBatch := summarize(ms(durations(p.batch)), 99).Mean

	m := map[string]metric{
		"server.batch_self_us":             {serverSelf, "us"},
		"server.open_self_us":              {per(openSelf, opens) / us, "us"},
		"server.wire_bytes_per_record":     {float64(det.WireBytes) / float64(det.Samples), "bytes"},
		"sampleview.sample_us_per_batch":   {sampleUs, "us"},
		"sampleview.open_us":               {openUs, "us"},
		"core.shuttle_us_per_batch":        {shuttle, "us"},
		"core.standalone_us_per_batch":     {coreAlone, "us"},
		"core.leaves_per_1k_samples":       {det.per1k(det.Leaves), "count"},
		"pagefile.read_verify_us_per_page": {costs.readVerifyUsPerPage, "us"},
		"pagefile.pages_per_1k_samples":    {det.per1k(det.Pages), "count"},
		"record.decode_ns_per_record":      {costs.decodeNsPerRecord, "ns"},
		"lsm.gather_us_per_open":           {gather, "us"},
		"lsm.levels_at_open":               {per(levels, srcOpens), "count"},
		"lsm.flushes":                      {float64(ws1.Flushes - ws0.Flushes), "count"},
		"lsm.compactions":                  {float64(ws1.Compactions - ws0.Compactions), "count"},
		"catalog.maint_jobs":               {float64(srv1.MaintJobs - srv0.MaintJobs), "count"},
		"shard.sample_us_per_batch":        {sharded, "us"},
		"memview.insert_ns":                {per(insertNs, inserts), "ns"},
		"wal.commit_wait_us":               {per(commitNs, commits) / us, "us"},
		"wal.ops_per_fsync":                {opsPerFsync, "count"},
		"fleet.hop_us_per_batch":           {hop, "us"},
		"fleet.placement_skew":             {placementSkew(opened0, opened1), "ratio"},
		"iosim.ms_per_1k_samples":          {float64(det.SimIO) / float64(time.Millisecond) * 1000 / float64(det.Samples), "ms"},
		"writer.ack_ms_p50":                {plain.acks.P50, "ms"},
		"writer.ack_ms_tail":               {plain.acks.Tail, "ms"},
		"writer.ingest_records_per_s":      {plain.ingestPerSec, "rec/s"},
		"writer.lag_ms_tail":               {plain.lag.Tail, "ms"},
		"writer.lag_ms_max":                {plain.lagMaxMs, "ms"},
		"trace.overhead_pct":               {(tracedBatch - plain.batchMeanMs) / plain.batchMeanMs * 100, "%"},
		"trace.layer_sum_share":            {(serverSelf + coreAlone + pageUs + decodeUs) / batchUs, "ratio"},
	}
	fmt.Fprintf(w, "layers per next-batch (traced mean %.1fus): server %.1fus + core %.1fus (standalone %.1fus) + pagefile %.1fus + record %.1fus\n",
		batchUs, serverSelf, shuttle, coreAlone, pageUs, decodeUs)

	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "spans: %d written to %s\n", len(spans), path)
	return m, p, nil
}

// streamsOpened reads each server's opened-stream counter.
func streamsOpened(e *env) []int64 {
	out := make([]int64, len(e.servers))
	for i, s := range e.servers {
		out[i] = s.Snapshot().StreamsOpened
	}
	return out
}

// placementSkew is the most streams any server opened over the mean.
func placementSkew(before, after []int64) float64 {
	var top, sum int64
	for i := range after {
		d := after[i] - before[i]
		top = max(top, d)
		sum += d
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(after)) / float64(sum)
}

// measureHop times the router's proxy hop: for each seeded predicate of a
// fixed list, it pulls the stream through the router and the same seeded
// stream straight from the replica the router placed it on, alternating
// batch by batch, and returns the mean routed batch time minus the mean
// direct one, in microseconds. The two must deliver the same records.
func measureHop(e *env, tr *tracer, seed uint64, fail *failures) (float64, error) {
	routed, err := server.Dial(e.entry)
	if err != nil {
		return 0, err
	}
	defer routed.Close()
	rv, err := routed.OpenView(saleView)
	if err != nil {
		return 0, err
	}
	direct := make([]*server.RemoteView, len(e.addrs))
	for i, addr := range e.addrs {
		cl, err := server.Dial(addr)
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		if direct[i], err = cl.OpenView(saleView); err != nil {
			return 0, err
		}
	}
	var routedNs, directNs, batches float64
	for i, q := range detQueryList(seed ^ 0x40b) {
		streamSeed := 1<<63 | seed<<8 | uint64(i)
		rs, err := rv.QueryAt(q, streamSeed, 0)
		if err != nil {
			return 0, err
		}
		rep := hostOf(tr.snapshot(), streamSeed)
		if rep < 0 {
			rs.Close()
			return 0, fmt.Errorf("no replica recorded opening stream seed %d", streamSeed)
		}
		ds, err := direct[rep].QueryAt(q, streamSeed, 0)
		if err != nil {
			rs.Close()
			return 0, err
		}
		rs.SetBatchSize(batchSize)
		ds.SetBatchSize(batchSize)
		for got := 0; got < samplesPerStream; {
			t0 := time.Now()
			a, errA := rs.NextBatch()
			t1 := time.Now()
			b, errB := ds.NextBatch()
			t2 := time.Now()
			if errors.Is(errA, io.EOF) && errors.Is(errB, io.EOF) {
				break
			}
			if errA != nil || errB != nil {
				rs.Close()
				ds.Close()
				return 0, fmt.Errorf("hop pull: routed %v, direct %v", errA, errB)
			}
			if digest(a) != digest(b) {
				fail.add("hop pull %s seed %d: routed batch differs from replica %d's", q, streamSeed, rep)
			}
			routedNs += float64(t1.Sub(t0))
			directNs += float64(t2.Sub(t1))
			batches++
			got += len(a)
		}
		rs.Close()
		ds.Close()
	}
	if batches == 0 {
		return 0, fmt.Errorf("hop pull delivered no batches")
	}
	return (routedNs - directNs) / batches / float64(time.Microsecond), nil
}

// hostOf returns the replica whose traced source opened the stream with
// the given seed, or -1.
func hostOf(spans []span, seed uint64) int {
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == spanSourceOpen && spans[i].Seed == seed {
			return spans[i].Replica
		}
	}
	return -1
}

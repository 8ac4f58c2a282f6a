package shard

import (
	"testing"

	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// TestOpenGathersOncePerShard: opening a merged stream scans each shard's
// delta levels once — the farm's read counters rise by exactly the levels'
// insert pages — and each shard's merge weight is that shard's lsm
// EstimateCount at open, for live and for empty write paths alike.
func TestOpenGathersOncePerShard(t *testing.T) {
	recs := genRecords(4000, 51)
	v, err := Create(t.TempDir()+"/view", recs, Options{K: 4, Seed: 5, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	q := record.FullBox(v.Dims())

	// open opens a stream and returns it with the page reads its open cost.
	open := func() (*Stream, int64) {
		t.Helper()
		before := v.farm.Counters().Reads()
		s, err := v.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return s, v.farm.Counters().Reads() - before
	}
	checkWeights := func(s *Stream) {
		t.Helper()
		for i, sp := range v.shards {
			est, err := sp.live.EstimateCount(q)
			if err != nil {
				t.Fatal(err)
			}
			if w := s.merge.Remaining(i); w != est || s.subs[i].est0 != est {
				t.Fatalf("shard %d: merge weight %v (est0 %v), lsm EstimateCount %v",
					i, w, s.subs[i].est0, est)
			}
		}
	}

	s, reads := open()
	if reads != 0 {
		t.Fatalf("opening over empty write paths read %d pages, want 0", reads)
	}
	checkWeights(s)
	s.Close()

	// Two flushed levels per shard plus an unflushed tail in the memviews.
	g := workload.NewGenerator(workload.Uniform, 52)
	perPage := int64(pagefile.NewItemFile(pagefile.NewMem(v.farm.Disk(0)), record.Size).PerPage())
	var wantPages int64
	for f := uint64(0); f < 3; f++ {
		counts := make([]int64, v.K())
		for i := uint64(0); i < 300+50*f; i++ {
			rec := g.Next()
			rec.Seq = 1<<40 + f<<20 + i
			v.Append(rec)
			counts[v.Route(rec)]++
		}
		if f == 2 {
			break // the tail stays in memory
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, n := range counts {
			wantPages += (n + perPage - 1) / perPage
		}
	}
	for i, sp := range v.shards {
		if n := sp.live.Store().Levels(); n != 2 {
			t.Fatalf("shard %d holds %d levels, want 2", i, n)
		}
	}

	s, reads = open()
	defer s.Close()
	if reads != wantPages {
		t.Fatalf("opening read %d pages, want %d (every level's insert pages, once)", reads, wantPages)
	}
	checkWeights(s)
	got, faults := drain(t, s)
	if faults != 0 {
		t.Fatalf("%d unexpected faults", faults)
	}
	if want := len(recs) + 300 + 350 + 400; len(got) != want {
		t.Fatalf("drained %d records, want %d", len(got), want)
	}
}

package lsm

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/wal"
	"sampleview/internal/workload"
)

// referenceInserts is the decode-then-filter scan matchingInserts must
// equal: every record of the region decoded, then tested on its fields.
func referenceInserts(t *testing.T, itf *pagefile.ItemFile, q record.Box) []record.Record {
	t.Helper()
	all, err := readAll(itf, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []record.Record
	for i := range all {
		if q.ContainsRecord(&all[i]) {
			out = append(out, all[i])
		}
	}
	return out
}

// selectivityBoxes returns 1-D and 2-D boxes covering the paper's 0.25%,
// 2.5% and 25% selectivities over the generated domain, plus the full
// domain in both dimensionalities.
func selectivityBoxes() map[string]record.Box {
	boxes := map[string]record.Box{
		"1d-full": record.FullBox(1),
		"2d-full": record.FullBox(2),
	}
	for _, sel := range []float64{0.0025, 0.025, 0.25} {
		w := int64(sel * float64(workload.KeyDomain))
		lo := workload.KeyDomain / 3
		boxes[fmt.Sprintf("1d-%g", sel)] = record.Box1D(lo, lo+w-1)
		side := int64(math.Sqrt(sel) * float64(workload.KeyDomain))
		boxes[fmt.Sprintf("2d-%g", sel)] = record.Box2D(lo, lo+side-1, lo/2, lo/2+side-1)
	}
	return boxes
}

// TestMatchingInsertsEqualsDecodeFilter: the encoded-coordinate filter
// returns exactly the records, in exactly the order, of a full decode
// followed by ContainsRecord, for levels of one page, of many full pages
// and with a partial last page, and it charges the same page reads.
func TestMatchingInsertsEqualsDecodeFilter(t *testing.T) {
	sim := testSim()
	perPage := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size).PerPage()
	sizes := map[string]int{
		"one-partial-page": perPage / 2,
		"one-full-page":    perPage,
		"many-pages":       7 * perPage,
		"partial-last":     7*perPage + 13,
	}
	boxes := selectivityBoxes()
	for name, n := range sizes {
		g := workload.NewGenerator(workload.Uniform, uint64(n))
		recs := make([]record.Record, n)
		for i := range recs {
			recs[i] = g.Next()
			recs[i].Seq = uint64(i)
		}
		lvl, err := writeDelta(sim, "", 1, recs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for bname, q := range boxes {
			want := referenceInserts(t, lvl.inserts, q)
			ck := sim.Fork()
			got, err := lvl.matchingInserts(lvl.inserts.OnClock(ck), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%s: encoded filter returned %d records, decode-then-filter %d (or order differs)",
					name, bname, len(got), len(want))
			}
			if !lvl.insBounds.overlaps(q) {
				continue
			}
			refCk := sim.Fork()
			if _, err := readAll(lvl.inserts.OnClock(refCk), nil); err != nil {
				t.Fatal(err)
			}
			if ck.Counters() != refCk.Counters() || ck.Now() != refCk.Now() {
				t.Fatalf("%s/%s: scan charged %+v in %v, reference %+v in %v",
					name, bname, ck.Counters(), ck.Now(), refCk.Counters(), refCk.Now())
			}
		}
	}
}

// TestGatherRetryMatchesReferenceUnderTransients: with transient bursts
// longer than the per-read attempt budget, single gathers fail and
// gatherRetry drives them through; the lists it returns still equal the
// fault-free decode-then-filter reference for every level.
func TestGatherRetryMatchesReferenceUnderTransients(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 2000, 70)
	for i := 0; i < 3; i++ {
		ingest(t, v, 300+97*i, uint64(71+i), uint64(i+1)<<32)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	levels := v.Store().snapshotLevels()
	boxes := selectivityBoxes()
	want := make(map[string][][]record.Record)
	for bname, q := range boxes {
		if q.Dims() != v.Main().Dims() {
			continue
		}
		for _, l := range levels {
			want[bname] = append(want[bname], referenceInserts(t, l.inserts, q))
		}
	}

	sim.SetFaultPlan(iosim.FaultPlan{Seed: 72, TransientRate: 0.5, TransientBurst: 6, MaxAttempts: 2})
	if _, err := v.gather(v.Main(), sim.Fork(), record.FullBox(1)); !pagefile.IsTransient(err) {
		t.Fatalf("single gather under the fault plan returned %v, want a transient error", err)
	}
	for bname, ref := range want {
		ck := sim.Fork()
		parts, err := v.gatherRetry(v.Main(), ck, boxes[bname])
		if err != nil {
			t.Fatalf("%s: gatherRetry: %v", bname, err)
		}
		for i, l := range parts.lists[1:] {
			if !slices.Equal(l, ref[i]) {
				t.Fatalf("%s: level %d gathered %d records, reference %d (or order differs)",
					bname, i, len(l), len(ref[i]))
			}
		}
	}
}

// TestRaceStreamOpensDuringWALFlush: streams open in a loop while a
// writer appends through the WAL and Flush seals and writes levels. Opens
// mid-flush read the sealed snapshot while its level is being written;
// cached memview snapshots are shared across opens. Every stream must
// serve a duplicate-free prefix, and the final full drain must equal the
// base plus every acked insert.
func TestRaceStreamOpensDuringWALFlush(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 400, 90)
	prefix := filepath.Join(t.TempDir(), "view")
	store, err := CreateStore(sim, prefix)
	if err != nil {
		t.Fatal(err)
	}
	v = NewView(v.Main(), store)
	t.Cleanup(func() { store.Close() })
	log, ops, err := wal.Open(prefix+".wal", wal.Options{Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	if _, err := v.AttachWAL(log, ops); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var inserted []record.Record
	wg.Add(1)
	go func() { // writer: batches of inserts, each committed
		defer wg.Done()
		g := workload.NewGenerator(workload.Uniform, 91)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := g.Next()
			rec.Seq = 1<<40 + uint64(i)
			if err := v.Insert(rec); err != nil {
				t.Error(err)
				return
			}
			inserted = append(inserted, rec)
			if i%32 == 31 {
				if err := v.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // maintenance: flush every few milliseconds
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := v.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // readers: open, check a prefix, drop
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, err := v.Query(record.FullBox(1), rand.New(rand.NewPCG(uint64(92+w), uint64(i))))
				if err != nil {
					t.Error(err)
					return
				}
				seen := make(map[uint64]bool)
				for j := 0; j < 200; j++ {
					rec, err := s.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Error(err)
						return
					}
					if seen[rec.Seq] {
						t.Errorf("duplicate seq %d in stream prefix", rec.Seq)
						return
					}
					seen[rec.Seq] = true
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if v.Store().Levels() == 0 {
		t.Fatal("no flush completed during the run")
	}

	got := drain(t, mustQuery(t, v, record.FullBox(1), 93))
	if want := 400 + len(inserted); len(got) != want {
		t.Fatalf("final drain served %d records, want %d", len(got), want)
	}
	for _, rec := range inserted {
		if got[rec.Seq] != rec {
			t.Fatalf("inserted seq %d missing or altered in the final drain", rec.Seq)
		}
	}
}

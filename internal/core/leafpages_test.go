package core

import (
	"fmt"
	"testing"

	"sampleview/internal/iosim"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// referenceSample drains a query with the leaf handling the copy-less stab
// path replaced: every leaf is decoded whole with readLeaf and each
// overlapping section filtered with ContainsRecord, then emitted or parked
// exactly as Algorithm 4 says. It shares the shuttle and the combine
// buckets with the real stream, so any difference between the two lies in
// the leaf read, the filter or the decode.
func referenceSample(t *testing.T, tree *Tree, q record.Box) []record.Record {
	t.Helper()
	s, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for s.remaining[1] > 0 {
		s.shuttle(&s.cur)
		sections, err := tree.readLeaf(s.cur.leaf)
		if err != nil {
			t.Fatal(err)
		}
		for sec := range sections {
			box := s.cur.box[sec+1]
			if !box.Overlaps(q) {
				continue
			}
			var batch []record.Record
			for i := range sections[sec] {
				if q.ContainsRecord(&sections[sec][i]) {
					batch = append(batch, sections[sec][i])
				}
			}
			if box.ContainsBox(q) {
				s.out = append(s.out, batch...)
				continue
			}
			idx := s.cur.idx[sec+1]
			s.buckets[sec][idx] = append(s.buckets[sec][idx], batch)
			s.buffered += len(batch)
			s.tryCombine(sec)
		}
	}
	return s.out
}

// TestRawFilterMatchesReference checks that filtering sections on their
// encoded bytes and decoding only the matches emits, record for record, the
// stream of the decode-everything reference: for 1-D and 2-D trees at the
// paper's three selectivities, fault-free and under transient faults.
func TestRawFilterMatchesReference(t *testing.T) {
	for _, dims := range []int{1, 2} {
		sim := testSim()
		// 6000 records over 16 leaves: each leaf spans ~10 pages, so sections
		// start and end mid-page.
		tree, _ := buildTestTree(t, sim, 6000, Params{Height: 5, Dims: dims}, 31)
		for _, sel := range []float64{0.0025, 0.025, 0.25} {
			qg := workload.NewQueryGen(uint64(100*sel) + 7)
			for k := 0; k < 4; k++ {
				q := qg.Range1D(sel)
				if dims == 2 {
					q = qg.Box2D(sel)
				}
				t.Run(fmt.Sprintf("dims%d/sel%g/%d", dims, sel, k), func(t *testing.T) {
					sim.SetFaultPlan(iosim.FaultPlan{})
					want := referenceSample(t, tree, q)
					for _, plan := range []iosim.FaultPlan{
						{},
						{Seed: 5, TransientRate: 0.3, TransientBurst: 8, MaxAttempts: 2},
					} {
						sim.SetFaultPlan(plan)
						s, err := tree.Query(q)
						if err != nil {
							t.Fatal(err)
						}
						got, deg := drainWithRetry(t, s)
						if len(deg) != 0 {
							t.Fatalf("plan %+v degraded the stream: %v", plan, deg[0])
						}
						if len(got) != len(want) {
							t.Fatalf("plan %+v: %d records, reference %d", plan, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("plan %+v: record %d is seq %d, reference seq %d", plan, i, got[i].Seq, want[i].Seq)
							}
						}
					}
					sim.SetFaultPlan(iosim.FaultPlan{})
				})
			}
		}
	}
}

// TestNextLeafAllocsIndependentOfLeafSize guards the copy-less stab: past
// the shuttle's own routing, a stab allocates at most one parked batch and
// one bucket slot per section, and nothing at all when every overlapping
// section covers the query (a query inside one leaf region), however many
// records a leaf holds. A return to whole-leaf decoding or per-record batch
// growth breaks the bound.
func TestNextLeafAllocsIndependentOfLeafSize(t *testing.T) {
	const runs = 40
	for _, n := range []int64{20_000, 80_000} {
		sim := testSim()
		// Height 7: 64 leaves, more than runs+1 stabs of either stream.
		tree, _ := buildTestTree(t, sim, n, Params{Height: 7}, 17)
		point := record.Box1D(workload.KeyDomain/3, workload.KeyDomain/3)
		for _, q := range []record.Box{point, workload.NewQueryGen(3).Range1D(0.25)} {
			probe, err := tree.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			st := newStab(tree.h)
			routing := testing.AllocsPerRun(runs, func() { probe.shuttle(&st) })

			s, err := tree.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			stab := testing.AllocsPerRun(runs, func() {
				if _, err := s.NextLeaf(); err != nil {
					t.Fatal(err)
				}
				s.out, s.outHead = s.out[:0], 0
			})
			limit := float64(2 * tree.h)
			if q.Dim(0) == point.Dim(0) {
				limit = 0
			}
			t.Logf("n=%d q=%v: %.0f allocs per stab, %.0f of them routing", n, q, stab, routing)
			if extra := stab - routing; extra > limit {
				t.Errorf("n=%d q=%v: NextLeaf allocates %.0f beyond the shuttle's %.0f, limit %.0f",
					n, q, extra, routing, limit)
			}
		}
	}
}

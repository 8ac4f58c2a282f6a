package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestSummarizeTail(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	cases := []struct {
		n          int
		maxP       float64
		p50, tailP float64
		tail       float64
	}{
		// p99 of 1000 values has exactly ten above it.
		{n: 1000, maxP: 99, p50: 500, tailP: 99, tail: 990},
		// 999 values leave nine above p99, so the tail falls to p95.
		{n: 999, maxP: 99, p50: 500, tailP: 95, tail: 950},
		// p90 of 100 values has ten above it; p95 only five.
		{n: 100, maxP: 99, p50: 50, tailP: 90, tail: 90},
		// The cap holds even when a higher percentile is supported.
		{n: 1000, maxP: 90, p50: 500, tailP: 90, tail: 900},
		// Too few samples for any tail.
		{n: 15, maxP: 99, p50: 8, tailP: 0, tail: 0},
	}
	for _, c := range cases {
		d := summarize(seq(c.n), c.maxP)
		if d.N != c.n || d.P50 != c.p50 || d.TailP != c.tailP || d.Tail != c.tail {
			t.Errorf("summarize(1..%d, max p%g) = n=%d p50=%g tail=p%g %g, want n=%d p50=%g tail=p%g %g",
				c.n, c.maxP, d.N, d.P50, d.TailP, d.Tail, c.n, c.p50, c.tailP, c.tail)
		}
	}
	if d := summarize(nil, 99); d.N != 0 || d.P50 != 0 {
		t.Errorf("summarize(nil) = %+v", d)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "client", Stream: "q1", Start: 0, End: 100},
		{Name: "source", Stream: "q1", Start: 10, End: 30},  // child of 0
		{Name: "source", Stream: "q1", Start: 20, End: 50},  // overlaps the first child
		{Name: "source", Stream: "q1", Start: 90, End: 120}, // runs past its parent
		{Name: "client", Stream: "q1", Start: 200, End: 260},
		{Name: "source", Stream: "q1", Start: 210, End: 220}, // child of 4, not 0
		{Name: "source", Stream: "q2", Start: 15, End: 25},   // another stream: no parent
		{Name: "leaf", Stream: "q1", Start: 12, End: 18},     // grandchild of 0 via 1
	}
	for i := range spans {
		spans[i].Parent = -1
	}
	linkParents(spans, "client", "source")
	spans[7].Parent = 1
	wantParent := []int{-1, 0, 0, -1, -1, 4, -1, 1}
	// The child that runs past the end of span 0 is enclosed by no client
	// span, so it stays a root.
	for i, p := range wantParent {
		if spans[i].Parent != p {
			t.Errorf("span %d parent = %d, want %d", i, spans[i].Parent, p)
		}
	}
	self := selfTimes(spans)
	// Span 0: children cover [10,50] once, so self = 100 - 40.
	// Span 1: its grandchild covers 6 of its 20.
	// Span 4: one child of 10.
	want := []int64{60, 14, 30, 30, 50, 10, 10, 6}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self[%d] = %d, want %d", i, self[i], w)
		}
	}

	// A child clipped to its parent: link the overhanging span by hand.
	spans[3].Parent = 0
	if got := selfTimes(spans)[0]; got != 50 {
		t.Errorf("self with an overhanging child = %d, want 50 (100 - [10,50] - [90,100])", got)
	}
}

func TestDueTimeLatency(t *testing.T) {
	gap := interval(128, 10240)
	if gap != 12500*time.Microsecond {
		t.Fatalf("interval(128, 10240) = %v, want 12.5ms", gap)
	}
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	// Operation 0 goes out on time; the ack stalls until 40ms, so
	// operations 1 and 2 leave late and their latency includes the wait.
	ops := []struct {
		i         int64
		sent, ack float64
		lat, late float64
	}{
		{0, 0, 40, 40, 0},
		{1, 40, 42, 29.5, 27.5},
		{2, 42, 44, 19, 17},
		{3, 44, 46, 8.5, 6.5},
		{4, 48, 52, 2, 0}, // early: the generator sleeps until due, and is not late
	}
	for _, op := range ops {
		due := dueAt(t0, op.i, gap)
		lat := ackLatency(due, at(op.ack))
		late := lateness(due, at(op.sent))
		if lat != time.Duration(op.lat*float64(time.Millisecond)) || late != time.Duration(op.late*float64(time.Millisecond)) {
			t.Errorf("op %d: latency %v lateness %v, want %vms %vms", op.i, lat, late, op.lat, op.late)
		}
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 2 * time.Second, trace: trace,
		out: t.TempDir(), records: 20000, setups: 1, warmup: 200 * time.Millisecond,
	}
}

// TestSmoke runs each workload briefly, traced, and requires its
// correctness gate to pass and every declared per-layer metric to appear.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	_, layers := benchmarkNames(t)
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res, err := run(smokeConfig(t, w, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if got := metricNames(res.Metrics); !sameNames(got, layers) {
				t.Errorf("traced metrics %v, BENCHMARK.json per_layer %v", got, layers)
			}
			// The two readers' tenants own different replicas, so both serve.
			if skew := res.Metrics["fleet.placement_skew"].Value; w == "fleet-read" && skew >= 1.5 {
				t.Errorf("fleet.placement_skew = %v, want both replicas serving", skew)
			}
		})
	}
}

func TestSmokeEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	e2e, _ := benchmarkNames(t)
	// Long enough that every window holds enough batches for a tail, even
	// under the race detector.
	cfg := smokeConfig(t, "mixed-ingest", false)
	cfg.seconds = 5 * time.Second
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("correct=false, failed=%d", res.Failed)
	}
	if got := metricNames(res.Metrics); !sameNames(got, e2e) {
		t.Errorf("metrics %v, BENCHMARK.json end_to_end %v", got, e2e)
	}
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
}

// TestDeterministicPassRepeats sets each workload up twice from one seed
// and requires identical deterministic counts.
func TestDeterministicPassRepeats(t *testing.T) {
	recs := genRecords(20000, 3)
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var got [2]detCounts
			for i := range got {
				e, err := setupEnv(w, filepath.Join(t.TempDir(), "env"), recs, 3)
				if err != nil {
					t.Fatal(err)
				}
				fail := &failures{}
				got[i], err = deterministicPass(e, 3, fail)
				e.close()
				if err != nil {
					t.Fatal(err)
				}
				if fail.count() != 0 {
					t.Fatalf("deterministic pass failures: %v", fail.msgs)
				}
			}
			if got[0].String() != got[1].String() {
				t.Errorf("deterministic counts differ:\n%s\n%s", got[0], got[1])
			}
		})
	}
}

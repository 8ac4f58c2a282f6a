package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/workload"
)

// workloads lists the benchmark's workloads in the order they are
// documented.
var workloads = []string{"read-local", "mixed-ingest", "fleet-read"}

const (
	viewRecords = 1_000_000   // records per view
	setupRuns   = 3           // set-ups per run; setup_s is their median
	warmupTime  = time.Second // untimed load before the measured phase
)

// config is one invocation's settings. main fills records, setups and
// warmup from constants; tests set them to run the same code at toy scale.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
	records  int
	setups   int
	warmup   time.Duration
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "read-local", "workload to run: read-local, mixed-ingest or fleet-read")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 20, "length of each measured phase, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: run a traced phase too and report per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "svperf"), "directory for view files and span dumps")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "svperf: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.records = viewRecords
	cfg.setups = setupRuns
	cfg.warmup = warmupTime

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svperf: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// specFor is each workload's traffic.
func specFor(workload string, seed uint64) loadSpec {
	switch workload {
	case "mixed-ingest":
		return loadSpec{readers: 1, rate: 2560, wbatch: 128, seed: seed}
	default:
		return loadSpec{readers: 2, seed: seed}
	}
}

// genRecords generates the view's uniform SALE records from the seed.
func genRecords(n int, seed uint64) []record.Record {
	g := workload.NewGenerator(workload.Uniform, seed)
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = g.Next()
	}
	return recs
}

// run executes one invocation: set-up (repeated), the deterministic pass,
// warm-up, the measured phase, optionally the traced phase, and the
// post-run correctness checks. Progress and tables go to w.
func run(cfg config, w io.Writer) (*result, error) {
	valid := false
	for _, name := range workloads {
		valid = valid || name == cfg.workload
	}
	if !valid {
		return nil, fmt.Errorf("unknown workload %q (want read-local, mixed-ingest or fleet-read)", cfg.workload)
	}
	fmt.Fprintf(w, "svperf workload=%s seed=%d seconds=%v trace=%v records=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.records)
	fmt.Fprintf(w, "commit=%s go=%s nproc=%d GOMAXPROCS=%d\n",
		commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	recs := genRecords(cfg.records, cfg.seed)
	data := filepath.Join(cfg.out, "data", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	var setups []float64
	var e *env
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		e, err = setupEnv(cfg.workload, filepath.Join(data, strconv.Itoa(i)), recs, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		e.close()
		os.Remove(data)
	}()
	fmt.Fprintf(w, "setup_s runs: %v\n", setups)
	if err := e.settle(); err != nil {
		return nil, fmt.Errorf("syncing view files: %w", err)
	}

	fail := &failures{}
	det, err := deterministicPass(e, cfg.seed, fail)
	if err != nil {
		return nil, fmt.Errorf("deterministic pass: %w", err)
	}
	fmt.Fprintf(w, "deterministic: %s\n", det)

	spec := specFor(cfg.workload, cfg.seed)
	warm, err := runPhase(e, spec, cfg.warmup, fail)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	spec.seed++
	// A traced run allocates its span buffer before the untraced phase, so
	// both phases run with the same live heap.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	runtime.GC()
	plain, err := runPhase(e, spec, cfg.seconds, fail)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	plainE2E := endToEnd(plain)
	printPhase(w, "measured", plain, plainE2E)
	ps := summarizePlain(plain)
	checked := plain.checked
	attempted := det.attempted + warm.attempted + plain.attempted
	plain = nil

	res := &result{}
	var layers map[string]metric
	if cfg.trace {
		spec.seed++
		var traced *phaseResult
		layers, traced, err = tracedRun(e, cfg, spec, tr, det, ps, fail, w)
		if err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		attempted += traced.attempted
		checked = append(checked, traced.checked...)
	}

	checks, err := postChecks(e, checked, fail)
	if err != nil {
		return nil, fmt.Errorf("post-run checks: %w", err)
	}
	attempted += checks

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	plainE2E["setup_s"] = metric{median(setups), "s"}
	plainE2E["peak_rss_mb"] = metric{rss, "MB"}

	res.Attempted = attempted
	res.Failed = fail.count()
	res.Correct = res.Failed == 0
	if cfg.trace {
		res.Metrics = layers
	} else {
		res.Metrics = plainE2E
	}
	printMetrics(w, res.Metrics)
	for _, m := range fail.msgs {
		fmt.Fprintf(w, "FAILURE: %s\n", m)
	}
	return res, nil
}

// endToEnd derives a phase's end-to-end metrics. Each is computed over
// each window of the phase, and the median over the windows is reported.
func endToEnd(p *phaseResult) map[string]metric {
	vals := map[string][]float64{}
	units := map[string]string{}
	add := func(name, unit string, v float64) {
		vals[name] = append(vals[name], v)
		units[name] = unit
	}
	win := p.dur / windows
	for i := 0; i < windows; i++ {
		lo, hi := win*time.Duration(i), win*time.Duration(i+1)
		in := func(all []obs) (out []obs, n int64) {
			for _, o := range all {
				if o.at >= lo && o.at < hi {
					out = append(out, o)
					n += o.n
				}
			}
			return out, n
		}
		batch, records := in(p.batch)
		ttf, _ := in(p.ttf)
		open, _ := in(p.open)
		b := summarize(ms(durations(batch)), 99)
		add("read_records_per_s", "rec/s", float64(records)/win.Seconds())
		add("next_batch_ms_p50", "ms", b.P50)
		add("next_batch_ms_p99", "ms", b.Tail)
		add("ttf1000_ms_p50", "ms", summarize(ms(durations(ttf)), 50).P50)
		add("open_stream_ms_p50", "ms", summarize(ms(durations(open)), 50).P50)
		sim, served := p.marks[i+1].simIO-p.marks[i].simIO, p.marks[i+1].served-p.marks[i].served
		perK := 0.0
		if served > 0 {
			perK = float64(sim) / float64(time.Millisecond) * 1000 / float64(served)
		}
		add("sim_io_ms_per_1k_samples", "ms", perK)
	}
	m := map[string]metric{}
	for name, v := range vals {
		m[name] = metric{median(v), units[name]}
	}
	return m
}

// printPhase writes a phase's pooled sample counts and percentiles, with
// the percentile each tail was taken at, then its window medians.
func printPhase(w io.Writer, name string, p *phaseResult, m map[string]metric) {
	row := func(what string, all []obs) {
		d := summarize(ms(durations(all)), 99)
		fmt.Fprintf(w, "  %-12s n=%-7d p50=%.3fms tail=p%g %.3fms mean=%.3fms max=%.3fms\n",
			what, d.N, d.P50, d.TailP, d.Tail, d.Mean, maxOf(ms(durations(all))))
	}
	fmt.Fprintf(w, "%s phase: %v in %d windows, %d streams, %d records, %d records appended, %d ops attempted\n",
		name, p.dur, windows, p.streams, p.records, p.appended, p.attempted)
	row("open", p.open)
	row("next_batch", p.batch)
	row("ttf1000", p.ttf)
	row("append_ack", p.acks)
	row("writer lag", p.lag)
	fmt.Fprintf(w, "  window medians:\n")
	printMetrics(w, m)
}

func maxOf(vals []float64) float64 {
	out := 0.0
	for _, v := range vals {
		out = max(out, v)
	}
	return out
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// postChecks runs the correctness gates that need the run to be over: the
// written view's count, and the cross-check of the streams readers kept.
// It returns how many checks it made.
func postChecks(e *env, checked []checkedStream, fail *failures) (int64, error) {
	var n int64
	switch e.workload {
	case "mixed-ingest":
		n++
		want := e.base + e.inserted.Load() - e.deleted.Load()
		if got := e.shard.Count(); got != want {
			fail.add("view holds %d records, want base %d + %d inserted - %d deleted = %d",
				got, e.base, e.inserted.Load(), e.deleted.Load(), want)
		}
	case "read-local":
		for _, c := range checked {
			n++
			s, err := e.sale[0].QuerySeeded(c.q, c.seed)
			if err != nil {
				return n, err
			}
			recs, err := s.Sample(c.n)
			s.Close()
			if err != nil {
				return n, err
			}
			if d := digest(recs); d != c.digest || len(recs) != c.n {
				fail.add("stream %s seed %d: served records differ from an in-process QuerySeeded stream", c.q, c.seed)
			}
		}
	case "fleet-read":
		for i, c := range checked {
			n++
			recs, err := pullDirect(e.addrs[i%len(e.addrs)], c.q, c.seed, c.n)
			if err != nil {
				return n, err
			}
			if d := digest(recs); d != c.digest || len(recs) != c.n {
				fail.add("stream %s seed %d: routed records differ from replica %d's", c.q, c.seed, i%len(e.addrs))
			}
		}
	}
	return n, nil
}

// pullDirect pulls the first n records of the seeded stream (q, seed)
// straight from one server.
func pullDirect(addr string, q record.Box, seed uint64, n int) ([]record.Record, error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	rv, err := cl.OpenView(saleView)
	if err != nil {
		return nil, err
	}
	s, err := rv.QueryAt(q, seed, 0)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.SetBatchSize(batchSize)
	var out []record.Record
	for len(out) < n {
		recs, err := s.NextBatch()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// commit names the source revision the binary was built from, when the
// build could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

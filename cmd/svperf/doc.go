// Command svperf is the repository's serving benchmark. One command runs a
// seeded workload against in-process servers over loopback TCP, checks
// every delivered record, and prints every metric by name and unit; the
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// # Running it
//
// From the repository root:
//
//	bash cmd/svperf/run.sh --workload read-local --seed 1 --seconds 20 --trace 0
//
// run.sh builds the binary from source into .bench_build/svperf (build
// cache included) and runs it there; view files and span dumps go to the
// same directory and the view files are removed on exit. svperf is its own
// module, so go test ./... at the repository root does not run its tests;
// run them with (cd cmd/svperf && go test ./...).
//
// --seed generates every input: the 1,000,000 uniform one-dimensional SALE
// records each view is built from (about 100 MB), the readers' predicates,
// the writer's records and the deterministic pass's query list. The servers
// receive only these generated inputs. --seconds is the length of the
// measured phase. The output header records the commit (when the build can
// see one), the Go version, nproc, GOMAXPROCS and the seed.
//
// A run sets the workload's stack up three times and reports the median
// set-up time; then, on the last stack, it makes a deterministic pass
// (below), an untimed one-second warm-up, and the measured phase. With
// --trace 1 it then swaps traced wrappers in for the served sources and
// repeats the measured phase with spans recorded (see Tracing).
//
// # Workloads
//
// Readers are closed-loop: each of at most two reader connections opens a
// stream for the next predicate of the paper's selectivity mix (0.25%,
// 2.5%, 25%), pulls 256-record batches until it holds 2000 samples, and
// opens the next. The writer is open-loop: its appends fall due at a fixed
// rate whether or not earlier ones were acked, and the first half of every
// third batch is deleted again.
//
//   - read-local: one server, pread backend, one view with an empty write
//     path, two readers. Nearly all the work is in the hot read path: the
//     core shuttle, the pagefile read and checksum, record decode and the
//     server's frame encode. A faster read path shows here first.
//   - mixed-ingest: a catalog-hosted view, 4 shards hashed by Seq, write-ahead
//     log on with group commit, one reader and one writer offering 2,560
//     records/s in 128-record appends. The catalog flushes a view once its
//     memviews buffer 4096 entries, merges delta levels past a depth of 4,
//     and never full-folds or scrubs. The work moves to memview, wal, the
//     lsm ladder, catalog maintenance and the shard K-way merge, and opens
//     are dominated by the delta gather: a read-path gain that costs writes
//     or opens shows here. (Standalone -view serving never merges its ladder,
//     so this workload needs the catalog.)
//   - fleet-read: a fleet router, default configuration (hedging off), in
//     front of two replica servers that each open a byte-identical copy of
//     the read-local view; two readers through the router. It measures the
//     proxy hop and ring placement, which no other workload touches. The
//     router places streams by (tenant, view), so each reader connection
//     names its own tenant ("reader-0", "reader-1"); the ring puts the two
//     on different replicas, so both serve.
//
// The writer's rate leaves the write path headroom on a shared disk: at
// 10,240 records/s a slow stretch of fsyncs (each append commits four shard
// logs) put the single writer connection behind, and the catch-up traffic
// cut the reader's throughput by up to a third in some runs and not others.
//
// # End-to-end metrics (--trace 0)
//
// The measured phase is cut into five equal windows. Each metric below
// except setup_s and peak_rss_mb is computed per window and reported as the
// median over the windows, so a disturbance shorter than two windows (a
// neighbour's burst of I/O on a shared host) does not move it. Timings are
// the median, or the tail: the highest of p99, p95, p90, p75 with at least
// ten samples above it in the window. The human-readable lines above the
// JSON give the pooled sample counts and the percentile each pooled tail
// was taken at.
//
//	setup_s                  s      build or open the views, start servers and router (median of 3)
//	read_records_per_s       rec/s  verified sample records delivered to readers per second
//	next_batch_ms_p50, _p99  ms     client-side RemoteStream.NextBatch latency
//	ttf1000_ms_p50           ms     open-stream request to the batch completing the 1000th sample
//	open_stream_ms_p50       ms     client-side open-stream latency
//	sim_io_ms_per_1k_samples ms     simulated disk time per 1000 served samples (the paper's cost)
//	peak_rss_mb              MB     peak resident memory of the process hosting the servers
//
// Only mixed-ingest writes, so the writer's figures (append latency from
// each append's due time to its durable ack, acked records per second, and
// how late the generator ran) are printed on every mixed-ingest run and
// reported with the per-layer metrics rather than gated here: an end-to-end
// metric is measured on every workload. They are also too unsteady to gate
// on a shared disk, where their run-to-run spread exceeded 0.3.
//
// # Per-layer metrics (--trace 1)
//
// The traced run measures layers from outside, timing the calls the
// benchmark makes into each layer's public surface and reading the
// counters the layers export. Each metric moves the end-to-end metric named
// after the arrow, on the workload named.
//
//	server.batch_self_us            us    client batch minus the source Sample it caused → next_batch_ms_p50 (read-local)
//	server.open_self_us             us    client open minus the source open → open_stream_ms_p50 (read-local)
//	server.wire_bytes_per_record    bytes response bytes per record, deterministic pass → read_records_per_s (read-local, fleet-read)
//	sampleview.sample_us_per_batch  us    served source's Sample per client batch → next_batch_ms_p50 (read-local)
//	sampleview.open_us              us    served source's open → open_stream_ms_p50 (read-local)
//	core.shuttle_us_per_batch       us    sample time minus the page-read and decode cost below → next_batch_ms_p50 (read-local)
//	core.standalone_us_per_batch    us    the same, from standalone core streams over the deterministic list, idle
//	core.leaves_per_1k_samples      count standalone core streams over the deterministic list → sim_io_ms_per_1k_samples (all)
//	pagefile.read_verify_us_per_page us   standalone File.ReadPayload, checksum included → read_records_per_s (read-local)
//	pagefile.pages_per_1k_samples   count page reads per 1000 samples, deterministic pass → sim_io_ms_per_1k_samples (all)
//	record.decode_ns_per_record     ns    standalone record.AppendBatch over the same pages → next_batch_ms_p50 (read-local)
//	lsm.gather_us_per_open          us    sharded source's open, the delta gather → open_stream_ms_p50, ttf1000_ms_p50 (mixed-ingest)
//	lsm.levels_at_open              count delta levels when a stream opens → open_stream_ms_p50 (mixed-ingest)
//	lsm.flushes, lsm.compactions    count write-path maintenance in the traced phase → next_batch_ms_p99 (mixed-ingest)
//	catalog.maint_jobs              count catalog jobs the server ran → next_batch_ms_p99 (mixed-ingest)
//	shard.sample_us_per_batch       us    the K-way merged stream's Sample per batch → read_records_per_s (mixed-ingest)
//	memview.insert_ns               ns    source Insert per record → writer.ack_ms_p50 (mixed-ingest)
//	wal.commit_wait_us              us    source Commit, the group-commit wait → writer.ack_ms_* (mixed-ingest)
//	wal.ops_per_fsync               count logged operations per WAL fsync → writer.ingest_records_per_s (mixed-ingest)
//	fleet.hop_us_per_batch          us    routed batch minus the same seeded batch pulled from the hosting replica → next_batch_ms_p50 (fleet-read)
//	fleet.placement_skew            ratio most streams opened on one server over the mean → read_records_per_s (fleet-read)
//	iosim.ms_per_1k_samples         ms    simulated time per 1000 samples, deterministic pass (exact for a seed)
//	writer.ack_ms_p50, _tail        ms    append due time to durable ack, measured phase (mixed-ingest)
//	writer.ingest_records_per_s     rec/s records acked by appends per second, measured phase (mixed-ingest)
//	writer.lag_ms_tail, _max        ms    how late the open-loop writer sent, measured phase (mixed-ingest)
//	trace.overhead_pct              %     traced mean next-batch over the untraced one, minus 100
//	trace.layer_sum_share           ratio server self + core (standalone) + pagefile + record over the traced mean next-batch
//
// core.shuttle_us_per_batch is a residual, so server, shuttle, pagefile and
// record add up to the traced batch time by construction. The layer sum in
// trace.layer_sum_share uses core.standalone_us_per_batch instead, an
// independent measurement; the part of a batch it leaves unexplained is
// time no layer accounts for, such as waiting for a processor. The
// overhead compares two phases of one run, so it carries their
// run-to-run noise (about ten percent).
//
// Metrics of a layer a workload does not use read 0 there (the fleet
// metrics outside fleet-read, shard and lsm.gather outside mixed-ingest).
// The standalone pagefile and record passes read pages of the served view's
// first ACE tree file, as many as the deterministic pass read, in a seeded
// order: the per-page cost does not depend on which leaf page is read.
//
// # Tracing
//
// The traced phase records spans (name, start, end, parent, stream id) in
// memory and writes them as JSON lines to .bench_build/svperf at the end.
// Client spans wrap server.Client calls; source spans wrap the calls the
// server makes into the server.ViewSource, ViewStream and WritableSource it
// was registered with (AddSource). A stream's id is its predicate, which
// both sides know; a source span's parent is the client span of the same
// stream that encloses it. A span's self time is its duration minus the
// part of it its children cover. Spans inside the program itself are a
// later change.
//
// # Correctness
//
// Every delivered record must lie inside its predicate, with no duplicate
// Seq within a stream. Every eighth stream of a reader is opened seeded
// (RemoteView.QueryAt at position 0). On read-local it must match an
// in-process QuerySeeded stream with the same seed over the same view
// record for record; on fleet-read, opened through the router, it must
// match the same seeded stream pulled straight from a replica. After a
// mixed-ingest run the view's count must equal its base count plus acked
// inserts minus acked deletes. Failures are counted
// against attempted operations; any failure makes "correct" false and the
// exit code 1.
//
// The deterministic pass runs one client over a fixed seeded list of twelve
// predicates (on mixed-ingest after 48 seeded appends) before any load. Its
// counts (page reads, leaves, wire bytes, simulated I/O and a digest of the
// delivered records) are printed on the "deterministic:" line and repeat
// exactly for a seed.
//
// # Legacy result tables
//
// The hand-written tables in results/ were each produced once by a
// different harness. They stay as they are; these metrics supersede them:
//
//   - serve-bench.md (svload against svserve, 64 clients): read-local's
//     read_records_per_s, next_batch_ms_p50/_p99 and open_stream_ms_p50.
//   - realio-bench.md (pread and mmap backends, ttf-1000): read-local's
//     read_records_per_s and ttf1000_ms_p50 on the pread backend, and
//     pagefile.read_verify_us_per_page.
//   - fleet-bench.md (router over K replicas): fleet-read's
//     read_records_per_s and next_batch_ms_p50/_p99 at K=2, with
//     fleet.hop_us_per_batch and fleet.placement_skew explaining them.
//   - ingest-bench.md (write path, svload -writers): mixed-ingest's
//     read_records_per_s and open_stream_ms_p50 under ingest, and its
//     writer.ingest_records_per_s and writer.ack_ms_p50/_tail, with the lsm,
//     wal and memview per-layer metrics.
package main

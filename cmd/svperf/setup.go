package main

import (
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sampleview"
	"sampleview/internal/fleet"
	"sampleview/internal/record"
	"sampleview/internal/server"
	"sampleview/internal/shard"
)

const (
	saleView = "sale"

	// shardK and catalogPolicy are mixed-ingest's fixed layout and
	// maintenance policy: flush a view's memviews once they buffer 4096
	// entries, merge delta levels past a depth of 4, never full-fold the
	// shard trees (a fold rebuilds 1M records) and never scrub.
	shardK = 4
)

var catalogPolicy = sampleview.CatalogPolicy{FlushThreshold: 4096, MaxDeltaLevels: 4}

// readOpts opens served view files on the pread backend whatever the
// environment's backend override says.
var readOpts = sampleview.Options{Backend: sampleview.BackendPread}

// env is one workload's serving stack: views, servers and, for
// fleet-read, the router. Clients dial entry.
type env struct {
	workload string
	dir      string

	servers []*server.Server
	serveWG sync.WaitGroup
	addrs   []string // server addresses, by replica index
	router  *fleet.Router
	entry   string

	sale  []*sampleview.View // read-local: one; fleet-read: one per replica
	cat   *sampleview.Catalog
	shard *shard.View // mixed-ingest's catalog-hosted view

	// Write accounting for mixed-ingest's view: its count at set-up, and
	// the appends and deletes acked since.
	base     int64
	nextSeq  atomic.Uint64
	inserted atomic.Int64
	deleted  atomic.Int64
}

// setupEnv builds the workload's views from recs under dir and starts its
// servers and router.
func setupEnv(workload, dir string, recs []record.Record, seed uint64) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{workload: workload, dir: dir}
	e.nextSeq.Store(1 << 40) // written records never collide with generated ones
	var err error
	switch workload {
	case "read-local":
		err = e.setupReadLocal(recs, seed)
	case "mixed-ingest":
		err = e.setupMixed(recs, seed)
	case "fleet-read":
		err = e.setupFleet(recs, seed)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// buildView writes a view over recs to path and closes it, the way svbuild
// does; servers then open it the way svserve does.
func buildView(path string, recs []record.Record, seed uint64) error {
	v, err := sampleview.CreateFromSlice(path, recs, sampleview.Options{Seed: seed, BuildParallelism: 2})
	if err != nil {
		return err
	}
	return v.Close()
}

func (e *env) setupReadLocal(recs []record.Record, seed uint64) error {
	path := filepath.Join(e.dir, "sale.view")
	if err := buildView(path, recs, seed); err != nil {
		return err
	}
	v, err := sampleview.Open(path, readOpts)
	if err != nil {
		return err
	}
	e.sale = append(e.sale, v)
	srv := server.New(server.Config{})
	srv.AddView(saleView, v)
	addr, err := e.serve(srv)
	if err != nil {
		return err
	}
	e.entry = addr
	return nil
}

func (e *env) setupMixed(recs []record.Record, seed uint64) error {
	cat, err := sampleview.NewCatalog(filepath.Join(e.dir, "catalog"),
		sampleview.ShardedOptions{WAL: true, Backend: sampleview.BackendPread}, catalogPolicy)
	if err != nil {
		return err
	}
	e.cat = cat
	v, err := cat.Register(saleView, recs, sampleview.ShardedOptions{
		K: shardK, Partition: sampleview.HashBySeq, Seed: seed, Parallelism: 2,
		WAL: true, Backend: sampleview.BackendPread,
	})
	if err != nil {
		return err
	}
	e.shard = v
	e.base = v.Count()
	srv := server.New(server.Config{})
	srv.SetCatalog(cat)
	addr, err := e.serve(srv)
	if err != nil {
		return err
	}
	e.entry = addr
	return nil
}

func (e *env) setupFleet(recs []record.Record, seed uint64) error {
	built := filepath.Join(e.dir, "sale.view")
	if err := buildView(built, recs, seed); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		rdir := filepath.Join(e.dir, fmt.Sprintf("replica-%d", i))
		if err := os.MkdirAll(rdir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(rdir, "sale.view")
		if err := copyFile(path, built); err != nil {
			return err
		}
		v, err := sampleview.Open(path, readOpts)
		if err != nil {
			return err
		}
		e.sale = append(e.sale, v)
		srv := server.New(server.Config{ReplicaID: fmt.Sprintf("replica-%d", i)})
		srv.AddView(saleView, v)
		if _, err := e.serve(srv); err != nil {
			return err
		}
	}
	r, err := fleet.New(fleet.Config{Replicas: e.addrs, Seed: seed})
	if err != nil {
		return err
	}
	e.router = r
	if err := r.Connect(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.entry = ln.Addr().String()
	e.serveWG.Add(1)
	go func() {
		defer e.serveWG.Done()
		if err := r.Serve(ln); err != nil {
			fmt.Fprintf(os.Stderr, "svperf: router: %v\n", err)
		}
	}()
	return nil
}

// serve starts srv on a loopback port and returns its address.
func (e *env) serve(srv *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	e.servers = append(e.servers, srv)
	e.addrs = append(e.addrs, addr)
	e.serveWG.Add(1)
	go func() {
		defer e.serveWG.Done()
		if err := srv.Serve(ln); err != nil {
			fmt.Fprintf(os.Stderr, "svperf: server: %v\n", err)
		}
	}()
	return addr, nil
}

// close stops the router and servers, waits for them, closes every view and
// removes the workload's files.
func (e *env) close() {
	if e.router != nil {
		e.router.Shutdown()
	}
	for _, s := range e.servers {
		s.Shutdown()
	}
	e.serveWG.Wait()
	for _, v := range e.sale {
		if err := v.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "svperf: closing view: %v\n", err)
		}
	}
	if e.cat != nil {
		if err := e.cat.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "svperf: closing catalog: %v\n", err)
		}
	}
	if err := os.RemoveAll(e.dir); err != nil {
		fmt.Fprintf(os.Stderr, "svperf: removing %s: %v\n", e.dir, err)
	}
}

// traceSources registers traced wrappers in place of the raw sources. New
// view resolutions (every client and router stream dials afresh) see them.
func (e *env) traceSources(tr *tracer) {
	switch e.workload {
	case "mixed-ingest":
		// A static registration shadows the catalog's; the catalog keeps
		// running maintenance on the same view.
		e.servers[0].AddSource(saleView, traceSharded(e.shard, tr))
	default:
		for i, s := range e.servers {
			s.AddSource(saleView, traceLocal(e.sale[i], tr, i))
		}
	}
}

// serverTotals sums counters over the workload's servers.
func (e *env) serverTotals() *server.StatsSnapshot {
	var t server.StatsSnapshot
	for _, s := range e.servers {
		sn := s.Snapshot()
		t.StreamsOpened += sn.StreamsOpened
		t.RecordsServed += sn.RecordsServed
		t.BytesWritten += sn.BytesWritten
		t.SimIO += sn.SimIO
		t.MaintJobs += sn.MaintJobs
	}
	return &t
}

// settledTotals is serverTotals once the counters have stopped moving. A
// server counts a response's bytes after writing it, so a client can hold
// the response before the count includes it.
func (e *env) settledTotals() *server.StatsSnapshot {
	prev := e.serverTotals()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := e.serverTotals()
		if cur.BytesWritten == prev.BytesWritten && cur.RecordsServed == prev.RecordsServed && cur.SimIO == prev.SimIO {
			return cur
		}
		prev = cur
	}
	return prev
}

// pagesTotal is the page reads charged to the served views' simulated
// disks so far, over every stream.
func (e *env) pagesTotal() int64 {
	if e.shard != nil {
		c := e.shard.Stats().Counters
		return c.RandomReads + c.SequentialReads
	}
	var n int64
	for _, v := range e.sale {
		c := v.Stats().Counters
		n += c.RandomReads + c.SequentialReads
	}
	return n
}

// baseFiles lists the ACE tree files under the served view, for the
// standalone core and pagefile passes.
func (e *env) baseFiles() []string {
	if e.shard != nil {
		files := make([]string, shardK)
		for i := range files {
			files[i] = filepath.Join(e.dir, "catalog", "views", saleView, shard.ShardFile(i))
		}
		return files
	}
	return []string{filepath.Join(e.dir, "sale.view")}
}

// settle writes the freshly built view files through to disk. Left dirty,
// their writeback would run inside the measured phase, and mixed-ingest's
// first write-ahead-log fsyncs would wait behind a few hundred megabytes.
func (e *env) settle() error {
	return filepath.WalkDir(e.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		serr := f.Sync()
		if err := f.Close(); err != nil {
			return err
		}
		return serr
	})
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

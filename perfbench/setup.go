package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"mvgc"
	"mvgc/internal/ftree"
	"mvgc/internal/netclient"
	"mvgc/internal/netserver"
	"mvgc/internal/repl"
	"mvgc/internal/wal"
)

// db is the store type the server and the benchmark's in-process layers
// use: int64 keys and values, sum-augmented.
type db = mvgc.DB[int64, int64, int64]

// deployment is one running server (plus, on durable workloads, a
// follower replicating it), preloaded and ready for load.
type deployment struct {
	w         *workload
	srv       *netserver.Server
	addr      string
	serveDone chan error
	ln        *countListener // nil when untraced

	dir        string   // leader WAL dir ("" in memory)
	leaderFS   *countFS // nil when untraced or in memory
	fdir       string
	followerFS *countFS
	fdb        *db
	follower   *repl.Follower
}

// preload is the initial contents: every key, value 0.
func preload(keys int64) []ftree.Entry[int64, int64] {
	ents := make([]ftree.Entry[int64, int64], keys)
	for i := range ents {
		ents[i] = ftree.Entry[int64, int64]{Key: int64(i)}
	}
	return ents
}

// walFS returns the FS the WAL should use: the counting wrapper when
// traced, the real filesystem (nil) otherwise.
func walFS(c *countFS) wal.FS {
	if c == nil {
		return nil
	}
	return c
}

// deploy starts the server with default settings (plus the workload's
// Consistent and WAL options) on a loopback listener, preloads it, and on
// durable workloads brings a follower to the leader's position.  With a
// tracer, the WALs and the listener get the counting wrappers.
func deploy(w *workload, root string, tr *tracer) (d *deployment, err error) {
	d = &deployment{w: w, serveDone: make(chan error, 1)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	cfg := netserver.Config{Consistent: w.consistent}
	if w.durable {
		d.dir = filepath.Join(root, "leader")
		if tr != nil {
			d.leaderFS = newCountFS(tr)
		}
		cfg.WAL = mvgc.WALOptions{Dir: d.dir, Fsync: "always", CheckpointBytes: checkpointBytes, FS: walFS(d.leaderFS)}
	}
	if d.srv, err = netserver.New(cfg); err != nil {
		return d, fmt.Errorf("start server: %w", err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	var ln net.Listener = raw
	if tr != nil {
		d.ln = &countListener{Listener: raw, tr: tr}
		ln = d.ln
	}
	d.addr = raw.Addr().String()
	go func() { d.serveDone <- d.srv.Serve(ln) }()

	if err := d.srv.DB().InsertBatch(preload(w.keys), nil); err != nil {
		return d, fmt.Errorf("preload: %w", err)
	}
	// Set-up ends when the server answers: a PING round trip also
	// proves Serve is accepting, so a close right after cannot race it.
	c, err := netclient.Dial(d.addr, 1)
	if err != nil {
		return d, err
	}
	err = c.Ping()
	c.Close()
	if err != nil {
		return d, fmt.Errorf("ping: %w", err)
	}
	if !w.durable {
		return d, nil
	}
	d.fdir = filepath.Join(root, "follower")
	if tr != nil {
		d.followerFS = newCountFS(tr)
	}
	d.fdb, err = mvgc.OpenDB[int64, int64, int64](mvgc.DBOptions[int64]{
		WAL: &mvgc.WALOptions{Dir: d.fdir, FS: walFS(d.followerFS)},
	}, mvgc.SumAug[int64](), nil)
	if err != nil {
		return d, fmt.Errorf("open follower: %w", err)
	}
	d.follower, err = repl.Start(repl.Config{Addr: d.addr, DB: d.fdb, Dir: d.fdir, FS: walFS(d.followerFS)})
	if err != nil {
		return d, fmt.Errorf("start follower: %w", err)
	}
	return d, d.catchUp(30 * time.Second)
}

// catchUp waits until the follower has replayed everything the leader
// committed.
func (d *deployment) catchUp(limit time.Duration) error {
	target := d.srv.DB().CommitGSN()
	deadline := time.Now().Add(limit)
	for {
		if pos, _ := d.follower.Pos(); pos >= target {
			return nil
		}
		if time.Now().After(deadline) {
			pos, _ := d.follower.Pos()
			return fmt.Errorf("follower stuck at GSN %d, leader at %d", pos, target)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close stops everything and reports leaked tree nodes: Live() must be 0
// once a DB is closed (precise GC).
func (d *deployment) close() error {
	var errs []error
	if d.follower != nil {
		d.follower.Stop()
		d.follower = nil
	}
	if d.srv != nil {
		errs = append(errs, d.srv.Shutdown())
		if err := <-d.serveDone; err != nil {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
		if n := d.srv.DB().Live(); n != 0 {
			errs = append(errs, fmt.Errorf("leader leaked %d tree nodes", n))
		}
		d.srv = nil
	}
	if d.fdb != nil {
		errs = append(errs, d.fdb.Close())
		if n := d.fdb.Live(); n != 0 {
			errs = append(errs, fmt.Errorf("follower leaked %d tree nodes", n))
		}
		d.fdb = nil
	}
	return errors.Join(errs...)
}

// deploySetups deploys setupRuns times, keeping the last deployment, and
// returns it with the median set-up time.  The earlier ones are closed
// (and checked for leaks) and their directories removed.  Each set-up
// starts from a collected heap with its free memory returned to the
// operating system, as a fresh process would.  Only the last one is
// traced.
func deploySetups(w *workload, root string, tr *tracer) (*deployment, time.Duration, error) {
	times := make([]int64, setupRuns)
	for i := range times {
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		last := i == setupRuns-1
		debug.FreeOSMemory()
		t0 := time.Now()
		var dtr *tracer
		if last {
			dtr = tr
		}
		d, err := deploy(w, dir, dtr)
		if err != nil {
			return nil, 0, err
		}
		times[i] = int64(time.Since(t0))
		if last {
			return d, time.Duration(median(times)), nil
		}
		if err := d.close(); err != nil {
			return nil, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
	}
	return nil, 0, errors.New("no set-up runs")
}

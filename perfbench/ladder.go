package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"mvgc"
	"mvgc/internal/batch"
	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/vm"
)

// The ladder replays one seeded op stream of the workload through each
// layer in turn, adding one layer per rung, so the gap between adjacent
// rungs is that layer's price.  The in-process rungs run the stream on
// one goroutine; batch and wal keep the workload's in-flight count of
// SETs outstanding; net and repl are short closed-loop loads of the
// workload against an in-memory and a durable, replicated server.

var rungNames = []string{"ftree", "vm", "core", "shard", "batch", "wal", "net", "repl"}

type rung struct {
	nsPerOp     float64
	allocsPerOp float64
}

// rungOps and rungBudget bound each in-process rung: it stops at
// whichever comes first.
const (
	rungOps    = 100_000
	rungBudget = 1500 * time.Millisecond
)

func rungStream(w *workload, seed uint64) []op {
	wc := *w
	wc.conns = 1
	g := newGen(&wc, newZipf(w), seed^0x1add, 0)
	ops := make([]op, rungOps)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// timeRung runs f over the stream until it ends or the budget is spent,
// then runs finish (which waits for asynchronous work and is timed too).
func timeRung(ops []op, f func(i int, o op), finish func()) (rung, int) {
	runtime.GC()
	m0 := mallocs()
	t0 := time.Now()
	n := 0
	for n < len(ops) {
		f(n, ops[n])
		n++
		if n%64 == 0 && time.Since(t0) > rungBudget {
			break
		}
	}
	if finish != nil {
		finish()
	}
	el := time.Since(t0)
	m1 := mallocs()
	return rung{nsPerOp: float64(el.Nanoseconds()) / float64(n), allocsPerOp: float64(m1-m0) / float64(n)}, n
}

type node = ftree.Node[int64, int64, int64]

// batchRung is the batch (and, with a WAL, the wal) rung's extra output.
type batchRung struct {
	submitCommit []int64 // ns, SubmitAsync to done, sorted
	writes       int
	allocs       float64 // mallocs over the rung
}

// runLadderInProcess runs the six in-process rungs.
func runLadderInProcess(w *workload, seed uint64, walDir string) (map[string]rung, batchRung, error) {
	out := map[string]rung{}
	ops := rungStream(w, seed)
	ents := preload(w.keys)
	var sink int64
	var br batchRung

	// ftree: the persistent tree alone; a SET path-copies and releases
	// the old root.
	to := serverOps()
	root := to.Build(ents)
	scanTree := func(r *node, o op) {
		it := to.NewIterAt(r, o.key)
		for j := 0; j < o.n && it.Valid(); j++ {
			sink += it.Val()
			it.Next()
		}
	}
	out["ftree"], _ = timeRung(ops, func(i int, o op) {
		switch o.kind {
		case opGet:
			v, _ := to.Find(root, o.key)
			sink += v
		case opSet:
			nr := to.Insert(root, o.key, int64(i))
			to.Release(root)
			root = nr
		case opScan:
			scanTree(root, o)
		}
	}, nil)
	to.Release(root)
	if n := to.Live(); n != 0 {
		return nil, br, fmt.Errorf("ftree rung leaked %d nodes", n)
	}

	// vm: + Version Maintenance (pswf) around every op, collecting what
	// Release hands back.
	to = serverOps()
	m := vm.New[node]("pswf", serverProcs(), to.Build(ents))
	var buf []*node
	collect := func() {
		buf = m.ReleaseInto(0, buf[:0])
		for _, r := range buf {
			to.Release(r)
		}
	}
	out["vm"], _ = timeRung(ops, func(i int, o op) {
		r := m.Acquire(0)
		switch o.kind {
		case opGet:
			v, _ := to.Find(r, o.key)
			sink += v
		case opSet:
			if nr := to.Insert(r, o.key, int64(i)); !m.Set(0, nr) {
				to.Release(nr)
			}
		case opScan:
			scanTree(r, o)
		}
		collect()
	}, nil)
	for _, r := range m.Drain() {
		to.Release(r)
	}
	if n := to.Live(); n != 0 {
		return nil, br, fmt.Errorf("vm rung leaked %d nodes", n)
	}

	// core: transactions on a leased handle.
	cm, err := core.NewMap(core.Config{Procs: serverProcs()}, newOps(), ents)
	if err != nil {
		return nil, br, err
	}
	h := cm.Handle()
	out["core"], _ = timeRung(ops, func(i int, o op) {
		switch o.kind {
		case opGet:
			h.Read(func(s core.Snapshot[int64, int64, int64]) {
				v, _ := s.Get(o.key)
				sink += v
			})
		case opSet:
			h.Update(func(t *core.Txn[int64, int64, int64]) { t.Insert(o.key, int64(i)) })
		case opScan:
			h.Read(func(s core.Snapshot[int64, int64, int64]) {
				s.ScanFunc(o.key, o.n, func(_, v int64) bool { sink += v; return true })
			})
		}
	}, nil)
	h.Close()
	cm.Close()
	if n := cm.Ops().Live(); n != 0 {
		return nil, br, fmt.Errorf("core rung leaked %d nodes", n)
	}

	// shard: the server's sharded DB, point ops and merged scans.
	view := func(d *db, f func(mvgc.DBSnapshot[int64, int64, int64])) {
		if w.consistent {
			d.ViewConsistent(f)
		} else {
			d.View(f)
		}
	}
	scanDB := func(d *db, o op) {
		view(d, func(s mvgc.DBSnapshot[int64, int64, int64]) {
			s.ScanFunc(o.key, o.n, func(_, v int64) bool { sink += v; return true })
		})
	}
	opts := mvgc.DBOptions[int64]{Grain: 1024}
	d, err := mvgc.OpenDB[int64, int64, int64](opts, mvgc.SumAug[int64](), ents)
	if err != nil {
		return nil, br, err
	}
	out["shard"], _ = timeRung(ops, func(i int, o op) {
		switch o.kind {
		case opGet:
			v, _ := d.Get(o.key)
			sink += v
		case opSet:
			if err == nil {
				err = d.Insert(o.key, int64(i))
			}
		case opScan:
			scanDB(d, o)
		}
	}, nil)
	if err != nil {
		return nil, br, err
	}
	if err := closeDB(d, "shard rung"); err != nil {
		return nil, br, err
	}

	// batch, then wal: SETs through the combiner with the workload's
	// in-flight count outstanding, the second time with a WAL (fsync
	// always) on disk.
	for _, name := range []string{"batch", "wal"} {
		o := opts
		if name == "wal" {
			o.WAL = &mvgc.WALOptions{Dir: filepath.Join(walDir, "ladder-wal"), Fsync: "always"}
		}
		d, err := mvgc.OpenDB[int64, int64, int64](o, mvgc.SumAug[int64](), ents)
		if err != nil {
			return nil, br, err
		}
		d.StartBatching(batch.Config{Clients: 1, BufCap: 1024, MaxLatency: time.Millisecond}, nil)
		window := w.conns * w.depth
		sem := make(chan struct{}, window)
		lat := make([]int64, len(ops))
		errs := make([]error, len(ops))
		writes := 0
		r, n := timeRung(ops, func(i int, o op) {
			switch o.kind {
			case opGet:
				v, _ := d.Get(o.key)
				sink += v
			case opSet:
				writes++
				sem <- struct{}{}
				t0 := time.Now()
				d.SubmitAsync(0, batch.Request[int64, int64]{Op: batch.OpInsert, Key: o.key, Val: int64(i)}, func(err error) {
					lat[i] = int64(time.Since(t0))
					errs[i] = err
					<-sem
				})
			case opScan:
				scanDB(d, o)
			}
		}, func() {
			for j := 0; j < window; j++ {
				sem <- struct{}{}
			}
		})
		out[name] = r
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				return nil, br, fmt.Errorf("%s rung: write %d: %w", name, i, errs[i])
			}
		}
		if name == "batch" {
			for i := 0; i < n; i++ {
				if ops[i].kind == opSet {
					br.submitCommit = append(br.submitCommit, lat[i])
				}
			}
			sortInts(br.submitCommit)
			br.writes = writes
			br.allocs = r.allocsPerOp * float64(n)
		}
		if err := closeDB(d, name+" rung"); err != nil {
			return nil, br, err
		}
	}
	microSink = sink
	return out, br, nil
}

// closeDB closes d and checks the precise-GC guarantee.
func closeDB(d *db, what string) error {
	if err := d.Close(); err != nil {
		return fmt.Errorf("%s: close: %w", what, err)
	}
	if n := d.Live(); n != 0 {
		return fmt.Errorf("%s leaked %d tree nodes", what, n)
	}
	return nil
}

package main

import (
	"runtime"
	"time"

	"mvgc"
	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/vm"
)

// Single-layer timings, each a fixed-count loop over one layer's public
// functions on data shaped like the workload's: a tree of the workload's
// key count, keys drawn from its distribution.

func newOps() *ftree.Ops[int64, int64, int64] {
	return ftree.New(mvgc.IntCmp[int64], mvgc.SumAug[int64](), 1024)
}

// serverOps returns tree operations set up as a server process's are:
// node recycling on, allocating through that process's own arena.
func serverOps() *ftree.Ops[int64, int64, int64] {
	o := newOps()
	o.Recycle = true
	return o.Bound(o.NewArena())
}

// serverProcs is P as netserver's DB sizes it (mvgc.DBOptions default).
func serverProcs() int { return runtime.GOMAXPROCS(0) + 1 }

// pointKeys draws n point keys from the workload's distribution.
func pointKeys(w *workload, seed uint64, n int) []int64 {
	wc := *w
	wc.conns = 1 // all residue classes
	g := newGen(&wc, newZipf(w), seed^0xf00d, 0)
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = g.point()
	}
	return ks
}

// perNs times n calls of f and returns ns per call.
func perNs(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

type microResult struct {
	findNs, scanNsPerEntry, multiInsertNsPerEntry float64
	acquireReleaseNs, setNs                       float64
	coreReadNs, coreUpdateNs                      float64
	shardGetNs, viewConsistentNs                  float64
}

const microOps = 200_000

// measureMicro runs every single-layer timing.  meanBatch is the load's
// measured writes per combiner commit.
func measureMicro(w *workload, seed uint64, meanBatch int) (microResult, error) {
	var r microResult
	keys := pointKeys(w, seed, microOps)
	ents := preload(w.keys)

	// ftree: Find, iterator scan, MultiInsert of a mean batch.
	ops := serverOps()
	root := ops.Build(ents)
	var sink int64
	r.findNs = perNs(microOps, func(i int) {
		v, _ := ops.Find(root, keys[i])
		sink += v
	})
	scanned := 0
	t0 := time.Now()
	for i := 0; i < microOps/50; i++ {
		it := ops.NewIterAt(root, keys[i])
		for j := 0; j < maxScan && it.Valid(); j++ {
			sink += it.Val()
			it.Next()
			scanned++
		}
	}
	r.scanNsPerEntry = float64(time.Since(t0).Nanoseconds()) / float64(scanned)
	if meanBatch < 1 {
		meanBatch = 1
	}
	batch := make([]ftree.Entry[int64, int64], meanBatch)
	inserted := 0
	var busy time.Duration
	for i := 0; inserted < microOps/4; i++ {
		for j := range batch {
			batch[j] = ftree.Entry[int64, int64]{Key: keys[(i*meanBatch+j)%len(keys)], Val: int64(i)}
		}
		t := time.Now()
		nr := ops.MultiInsert(root, batch, nil)
		busy += time.Since(t)
		ops.Release(root)
		root = nr
		inserted += meanBatch
	}
	r.multiInsertNsPerEntry = float64(busy.Nanoseconds()) / float64(inserted)
	ops.Release(root)

	// vm: the server's algorithm (pswf) at the server's P, on small
	// payloads recycled through Release.
	type ver struct{ v int64 }
	m := vm.New[ver]("pswf", serverProcs(), &ver{})
	free := make([]*ver, 0, 8)
	r.acquireReleaseNs = perNs(microOps, func(int) {
		sink += m.Acquire(0).v
		free = m.ReleaseInto(0, free[:0])
	})
	pool := []*ver{}
	withSet := perNs(microOps, func(i int) {
		m.Acquire(0)
		var nv *ver
		if n := len(pool); n > 0 {
			nv, pool = pool[n-1], pool[:n-1]
		} else {
			nv = new(ver)
		}
		nv.v = int64(i)
		m.Set(0, nv)
		free = m.ReleaseInto(0, free[:0])
		pool = append(pool, free...)
	})
	r.setNs = withSet - r.acquireReleaseNs
	m.Drain()

	// core: Handle.Read + Get, Handle.Update.
	cm, err := core.NewMap(core.Config{Procs: serverProcs()}, newOps(), ents)
	if err != nil {
		return r, err
	}
	h := cm.Handle()
	r.coreReadNs = perNs(microOps, func(i int) {
		h.Read(func(s core.Snapshot[int64, int64, int64]) {
			v, _ := s.Get(keys[i])
			sink += v
		})
	})
	r.coreUpdateNs = perNs(microOps, func(i int) {
		h.Update(func(t *core.Txn[int64, int64, int64]) { t.Insert(keys[i], int64(i)) })
	})
	h.Close()
	cm.Close()

	// shard: the server's DB shape; Get, and an empty ViewConsistent.
	d, err := mvgc.OpenDB[int64, int64, int64](mvgc.DBOptions[int64]{Grain: 1024}, mvgc.SumAug[int64](), ents)
	if err != nil {
		return r, err
	}
	r.shardGetNs = perNs(microOps, func(i int) {
		v, _ := d.Get(keys[i])
		sink += v
	})
	r.viewConsistentNs = perNs(microOps, func(int) {
		d.ViewConsistent(func(mvgc.DBSnapshot[int64, int64, int64]) {})
	})
	d.Close()
	microSink = sink
	return r, nil
}

var microSink int64

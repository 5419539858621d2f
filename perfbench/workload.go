package main

import (
	"fmt"

	"mvgc/internal/ycsb"
)

// workload is one traffic mix driven against an in-process server.  The
// reasons each exists are in README.md; the names are referenced by later
// changes, so they are stable.
type workload struct {
	name       string
	conns      int     // load connections (at most nproc)
	depth      int     // requests each connection keeps in flight
	keys       int64   // keyspace [0, keys), every key preloaded
	setFrac    float64 // share of SETs
	scanFrac   float64 // share of SCANs; the rest are GETs
	zipf       bool    // scrambled zipfian (θ=0.99) instead of uniform
	consistent bool    // netserver.Config.Consistent
	durable    bool    // leader WAL on disk, fsync always, plus a follower
}

var workloads = []workload{
	{name: "pipelined-scan", conns: 2, depth: 64, keys: 1_000_000, setFrac: 0.5, scanFrac: 0.05, consistent: true},
	{name: "durable-repl", conns: 2, depth: 64, keys: 100_000, setFrac: 0.9, zipf: true, durable: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// checkpointBytes is the durable leader's CheckpointBytes.
const checkpointBytes = 8 << 20

// maxScan bounds a SCAN's length (uniform in 1..maxScan).
const maxScan = 100

type opKind uint8

const (
	opSet opKind = iota
	opGet
	opScan
	numKinds
)

var kindNames = [numKinds]string{"set", "get", "scan"}

type op struct {
	kind opKind
	key  int64
	n    int // SCAN length
}

// gen is one connection's seeded op stream.  Point keys fall in the
// connection's residue class (key mod conns == conn), so each key has a
// single writer and the oracle can bound every GET exactly; SCAN start
// keys range over the whole keyspace.
type gen struct {
	w    *workload
	conn int64
	rng  *ycsb.SplitMix64
	zipf *ycsb.ScrambledZipfian
}

func newGen(w *workload, zipf *ycsb.ScrambledZipfian, seed uint64, conn int) *gen {
	return &gen{
		w:    w,
		conn: int64(conn),
		rng:  ycsb.NewSplitMix64(ycsb.Mix64(seed*0x9E3779B97F4A7C15 + uint64(conn) + 1)),
		zipf: zipf,
	}
}

func (g *gen) point() int64 {
	var k int64
	if g.zipf != nil {
		k = int64(g.zipf.Next(g.rng))
	} else {
		k = int64(g.rng.Intn(uint64(g.w.keys)))
	}
	c := int64(g.w.conns)
	k = k - k%c + g.conn
	if k >= g.w.keys {
		k -= c
	}
	return k
}

func (g *gen) next() op {
	u := g.rng.Float64()
	switch {
	case u < g.w.setFrac:
		return op{kind: opSet, key: g.point()}
	case u < g.w.setFrac+g.w.scanFrac:
		return op{kind: opScan, key: int64(g.rng.Intn(uint64(g.w.keys))), n: 1 + int(g.rng.Intn(maxScan))}
	default:
		return op{kind: opGet, key: g.point()}
	}
}

// newZipf returns the shared key distribution for w (nil when uniform).
// ScrambledZipfian.Next only reads the generator, so connections share it.
func newZipf(w *workload) *ycsb.ScrambledZipfian {
	if !w.zipf {
		return nil
	}
	return ycsb.NewScrambledZipfian(uint64(w.keys))
}

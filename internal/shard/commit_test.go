package shard

import (
	"fmt"
	"testing"
	"time"

	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

type u64Map = Map[uint64, uint64, struct{}]
type u64Txn = Txn[uint64, uint64, struct{}]

// newCommitMap builds a 2-shard uint64 map (key k lives on shard k%2), in
// memory or with a redo log on a MemFS.
func newCommitMap(t *testing.T, logged bool) *u64Map {
	t.Helper()
	if logged {
		m, _ := newWALMap(t, 2, wal.NewMemFS())
		return m
	}
	m, err := New(
		Config[uint64]{Shards: 2, Procs: 4, Hash: func(k uint64) uint64 { return k }},
		func() *ftree.Ops[uint64, uint64, struct{}] {
			return ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 0)
		},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// finishesWithin runs op on its own goroutine and reports whether it
// returned before d.
func finishesWithin(d time.Duration, op func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		op()
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestCommitPanicDoesNotWedge: a user comb that panics mid-commit must
// leave every lock the commit took released, logged or not — a later point
// write and a 2-shard atomic transaction on the same shard finish promptly.
func TestCommitPanicDoesNotWedge(t *testing.T) {
	boom := func(old, new uint64) uint64 { panic("comb") }
	const k0, k1 = 2, 3 // shards 0 and 1
	paths := []struct {
		name string
		run  func(m *u64Map) error
	}{
		{"InsertWith", func(m *u64Map) error { return m.InsertWith(k0, 1, boom) }},
		{"Update", func(m *u64Map) error {
			return m.Update(func(t *u64Txn) { t.InsertWith(k0, 1, boom) })
		}},
		{"UpdateAtomic1", func(m *u64Map) error {
			return m.UpdateAtomic(func(t *u64Txn) { t.InsertWith(k0, 1, boom) })
		}},
		{"UpdateAtomic2", func(m *u64Map) error {
			return m.UpdateAtomic(func(t *u64Txn) { t.Insert(k1, 1); t.InsertWith(k0, 1, boom) })
		}},
		{"UpdateAtomicKeys", func(m *u64Map) error {
			return m.UpdateAtomicKeys([]uint64{k0, k1}, func(t *u64Txn) { t.Insert(k1, 1); t.InsertWith(k0, 1, boom) })
		}},
	}
	for _, logged := range []bool{false, true} {
		for _, p := range paths {
			t.Run(fmt.Sprintf("%s/wal=%v", p.name, logged), func(t *testing.T) {
				m := newCommitMap(t, logged)
				if err := m.Insert(k0, 10); err != nil {
					t.Fatal(err)
				}
				panicked := false
				func() {
					defer func() { panicked = recover() != nil }()
					p.run(m)
				}()
				if !panicked {
					t.Fatal("comb did not panic")
				}
				if !finishesWithin(2*time.Second, func() { m.Insert(k0, 20) }) {
					t.Fatal("Insert on the shard hung after the panic")
				}
				if !finishesWithin(2*time.Second, func() {
					m.UpdateAtomic(func(t *u64Txn) { t.Insert(k0, 30); t.Insert(k1, 31) })
				}) {
					t.Fatal("2-shard UpdateAtomic hung after the panic")
				}
				if v, _ := m.Get(k0); v != 30 {
					t.Fatalf("k0 = %d after recovery, want 30", v)
				}
				m.Close()
			})
		}
	}
}

// TestCommitAllocBudget pins the heap allocations of each write path, warm,
// in memory and with a redo log on a MemFS (2 shards, 2-key transactions
// spanning both).  The ceilings are the figures before the write paths
// shared one commit pipeline; the pipeline must not add heap escapes.
func TestCommitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	add := func(old, new uint64) uint64 { return old + new }
	paths := []struct {
		name     string
		mem, wal float64
		run      func(m *u64Map, n uint64)
	}{
		{"Insert", 0, 0, func(m *u64Map, n uint64) { m.Insert(n%8, n) }},
		{"Update", 4, 4, func(m *u64Map, n uint64) {
			m.Update(func(t *u64Txn) { t.Insert(0, n); t.InsertWith(1, 1, add) })
		}},
		{"UpdateAtomic", 7, 8, func(m *u64Map, n uint64) {
			m.UpdateAtomic(func(t *u64Txn) { t.Insert(0, n); t.InsertWith(1, 1, add) })
		}},
		{"UpdateAtomicKeys", 12, 13, func(m *u64Map, n uint64) {
			m.UpdateAtomicKeys([]uint64{0, 1}, func(t *u64Txn) {
				t.Insert(0, n)
				t.InsertWith(1, 1, add)
			})
		}},
	}
	for _, logged := range []bool{false, true} {
		for _, p := range paths {
			t.Run(fmt.Sprintf("%s/wal=%v", p.name, logged), func(t *testing.T) {
				m := newCommitMap(t, logged)
				defer m.Close()
				var n uint64
				for ; n < 200; n++ { // warm arenas, handle caches and encoders
					p.run(m, n)
				}
				got := testing.AllocsPerRun(200, func() {
					n++
					p.run(m, n)
				})
				limit := p.mem
				if logged {
					limit = p.wal
				}
				if got > limit {
					t.Fatalf("%.0f allocs per call, budget %.0f", got, limit)
				}
			})
		}
	}
}

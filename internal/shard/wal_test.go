package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mvgc/internal/batch"
	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

func u64Codec() (func([]byte, uint64) []byte, func([]byte) (uint64, error)) {
	enc := func(dst []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(dst, x) }
	dec := func(b []byte) (uint64, error) {
		if len(b) != 8 {
			return 0, errors.New("bad u64 length")
		}
		return binary.LittleEndian.Uint64(b), nil
	}
	return enc, dec
}

func newWALMap(t *testing.T, shards int, fs wal.FS) (*Map[uint64, uint64, struct{}], *wal.Log) {
	t.Helper()
	m, rec := reopenWALMap(t, shards, fs)
	if len(rec.Records) != 0 || rec.Snapshot != nil {
		t.Fatalf("fresh dir recovered %d records, snapshot=%v", len(rec.Records), rec.Snapshot != nil)
	}
	return m, m.wal.log
}

// reopenWALMap opens (or re-opens) a WAL-backed map over fs, replaying
// whatever the log holds — the same dance DB recovery does.
func reopenWALMap(t *testing.T, shards int, fs wal.FS) (*Map[uint64, uint64, struct{}], *wal.Recovered) {
	t.Helper()
	log, rec, err := wal.Open(wal.Options{Dir: "wal", FS: fs, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := u64Codec()
	cfg := WALConfig[uint64, uint64]{Log: log, EncKey: enc, DecKey: dec, EncVal: enc, DecVal: dec}
	initial, err := DecodeWALSnapshot(cfg, rec.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(
		Config[uint64]{Shards: shards, Procs: 4, Hash: func(k uint64) uint64 { return k }},
		func() *ftree.Ops[uint64, uint64, struct{}] {
			return ftree.New[uint64, uint64, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, uint64](), 0)
		},
		initial,
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RecoverWAL(cfg, rec); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachWAL(cfg); err != nil {
		t.Fatal(err)
	}
	return m, rec
}

func dump(m *Map[uint64, uint64, struct{}]) map[uint64]uint64 {
	out := map[uint64]uint64{}
	m.View(func(s Snap[uint64, uint64, struct{}]) {
		s.ForEach(func(k, v uint64) { out[k] = v })
	})
	return out
}

// TestShardWALRoundTrip drives every logged write path — point ops,
// combining ops, buffered Update, multi-shard UpdateAtomic and
// UpdateAtomicKeys, per-shard batches — then reopens from the log alone
// and requires the exact same contents.
func TestShardWALRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	m, _ := newWALMap(t, 4, fs)

	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(m.Insert(1, 10))
	check(m.Insert(2, 20))
	check(m.InsertWith(1, 5, func(old, new uint64) uint64 { return old + new })) // -> 15
	check(m.Delete(2))
	check(m.Delete(999)) // no-op: no record
	check(m.Update(func(tx *Txn[uint64, uint64, struct{}]) {
		tx.Insert(3, 30)
		tx.Insert(4, 40)
		tx.InsertWith(3, 3, func(old, new uint64) uint64 { return old + new }) // -> 33
	}))
	check(m.UpdateAtomic(func(tx *Txn[uint64, uint64, struct{}]) {
		tx.Insert(5, 50)
		tx.Insert(6, 60)
		tx.Delete(4)
	}))
	check(m.UpdateAtomicKeys([]uint64{5, 6}, func(tx *Txn[uint64, uint64, struct{}]) {
		a, _ := tx.Get(5)
		b, _ := tx.Get(6)
		tx.Insert(5, a+b) // 110
		tx.Delete(6)
	}))
	check(m.InsertBatch([]ftree.Entry[uint64, uint64]{{Key: 7, Val: 70}, {Key: 8, Val: 80}}, nil))
	check(m.DeleteBatch([]uint64{8, 877}))

	m.StartBatching(batch.Config{Clients: 2, MaxBatch: 64}, func(old, new uint64) uint64 { return old + new })
	m.SubmitWait(0, batch.Request[uint64, uint64]{Op: batch.OpInsert, Key: 9, Val: 90})
	m.SubmitWait(1, batch.Request[uint64, uint64]{Op: batch.OpInsert, Key: 9, Val: 9}) // comb -> 99
	var serr error
	var wg sync.WaitGroup
	wg.Add(1)
	m.SubmitAsync(0, batch.Request[uint64, uint64]{Op: batch.OpInsert, Key: 11, Val: 111}, func(err error) {
		serr = err
		wg.Done()
	})
	m.Flush(0)
	wg.Wait()
	check(serr)

	want := dump(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rec := reopenWALMap(t, 4, fs)
	defer m2.Close()
	if rec.MaxGSN == 0 || len(rec.Records) == 0 {
		t.Fatalf("expected recovered records, got %d (maxGSN %d)", len(rec.Records), rec.MaxGSN)
	}
	got := dump(m2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d: got %v want %v", len(got), len(want), got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d, want %d", k, got[k], v)
		}
	}
	wantVals := map[uint64]uint64{1: 15, 3: 33, 5: 110, 7: 70, 9: 99, 11: 111}
	for k, v := range wantVals {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d, want %d", k, got[k], v)
		}
	}
	// Post-recovery stamps must never rewind below logged ones.
	if g := m2.gsn.Load(); g < rec.MaxGSN {
		t.Fatalf("gsn resumed at %d, below recovered max %d", g, rec.MaxGSN)
	}
}

// TestShardWALCheckpoint: a checkpoint snapshots a consistent cut, retires
// covered segments, and recovery over snapshot+tail reproduces the map.
func TestShardWALCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	m, log := newWALMap(t, 2, fs)
	for k := uint64(0); k < 64; k++ {
		if err := m.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := log.Stat(); st.Segments != 1 { // current only; all sealed retired
		t.Fatalf("checkpoint left %d segments, want 1", st.Segments)
	}
	for k := uint64(64); k < 80; k++ {
		if err := m.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete(0); err != nil {
		t.Fatal(err)
	}
	want := dump(m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rec := reopenWALMap(t, 2, fs)
	defer m2.Close()
	if rec.Snapshot == nil || rec.SnapshotCut == 0 {
		t.Fatal("expected a snapshot from the checkpoint")
	}
	got := dump(m2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d, want %d", k, got[k], v)
		}
	}
}

// TestShardWALFailFast: once the log is poisoned (injected sync failure),
// writes return the error BEFORE committing to memory, and Close still
// works.
func TestShardWALFailFast(t *testing.T) {
	ffs := wal.NewFaultFS(wal.NewMemFS())
	m, log := newWALMap(t, 2, ffs)
	defer m.Close()
	if err := m.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	// Arm: every subsequent write-side op fails.
	for op := ffs.Ops() + 1; op < ffs.Ops()+200; op++ {
		ffs.Script(op, wal.FaultErr)
	}
	if err := m.Insert(2, 2); err == nil {
		t.Fatal("Insert with a failing log returned nil")
	}
	if log.Err() == nil {
		t.Fatal("log error not sticky")
	}
	// Fail fast now: no memory commit for refused writes.
	if err := m.Insert(3, 3); err == nil {
		t.Fatal("Insert after sticky error returned nil")
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("refused write reached memory")
	}
	if err := m.Update(func(tx *Txn[uint64, uint64, struct{}]) { tx.Insert(4, 4) }); err == nil {
		t.Fatal("Update after sticky error returned nil")
	}
	if _, ok := m.Get(4); ok {
		t.Fatal("refused Update reached memory")
	}
	if err := m.UpdateAtomic(func(tx *Txn[uint64, uint64, struct{}]) { tx.Insert(5, 5); tx.Insert(6, 6) }); err == nil {
		t.Fatal("UpdateAtomic after sticky error returned nil")
	}
}

// TestShardCloseIdempotent: double Close, concurrent Close, and Close
// racing in-flight operations must not panic; late arrivals get ErrClosed.
func TestShardCloseIdempotent(t *testing.T) {
	fs := wal.NewMemFS()
	m, _ := newWALMap(t, 4, fs)
	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := uint64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(w)*1000 + n%100
				if err := m.Insert(k, n); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Insert: %v", err)
					}
					return
				}
				m.Get(k)
				if err := m.Update(func(tx *Txn[uint64, uint64, struct{}]) { tx.Insert(k+1, n) }); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Update: %v", err)
					return
				}
			}
		}(w)
	}
	// Several goroutines race Close itself.
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			if err := m.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	cwg.Wait()
	close(stop)
	wg.Wait()

	// Everything after Close observes the closed state, not a panic.
	if err := m.Insert(1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: %v, want ErrClosed", err)
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("Get after Close returned a value")
	}
	ran := false
	m.View(func(Snap[uint64, uint64, struct{}]) { ran = true })
	if ran {
		t.Fatal("View ran its callback after Close")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if live := m.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close", live)
	}
}

// TestShardWALGroupCommitConcurrent hammers logged point writes from many
// goroutines under -race and verifies recovery holds every acked write.
func TestShardWALGroupCommitConcurrent(t *testing.T) {
	fs := wal.NewMemFS()
	m, _ := newWALMap(t, 4, fs)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < per; n++ {
				k := uint64(w*per + n)
				if err := m.Insert(k, k+1); err != nil {
					t.Errorf("Insert(%d): %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _ := reopenWALMap(t, 4, fs)
	defer m2.Close()
	for k := uint64(0); k < workers*per; k++ {
		if v, ok := m2.Get(k); !ok || v != k+1 {
			t.Fatalf("key %d: recovered (%d, %v), want (%d, true)", k, v, ok, k+1)
		}
	}
}

// TestShardWALCrashTail: a power cut after acked writes loses nothing; a
// torn unsynced tail is dropped cleanly, never half-applied.
func TestShardWALCrashTail(t *testing.T) {
	for _, torn := range []int{0, 5} {
		t.Run(fmt.Sprintf("torn=%d", torn), func(t *testing.T) {
			fs := wal.NewMemFS()
			m, _ := newWALMap(t, 2, fs)
			for k := uint64(0); k < 20; k++ {
				if err := m.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			// Power cut: no Close, just drop unsynced state (+ torn bytes).
			fs.Crash(torn)
			m2, _ := reopenWALMap(t, 2, fs)
			defer m2.Close()
			// FsyncAlways: every acked write was synced before Insert
			// returned, so all 20 must be present.
			for k := uint64(0); k < 20; k++ {
				if v, ok := m2.Get(k); !ok || v != k {
					t.Fatalf("acked key %d lost (got %d, %v)", k, v, ok)
				}
			}
			_ = m // leaked on purpose: the "crashed" process's map is dead
		})
	}
}

// TestShardWALMixedWriters drives every logged write API at once — point
// Insert/Delete, InsertWith, Update, UpdateAtomic, UpdateAtomicKeys,
// InsertBatch and combiner SubmitAsync with a comb — over a small key set
// that every writer shares, across 4 shards.  Contention on the same keys
// is the point: the map reopened from the log alone must equal the live
// map's final state, which holds only if each shard's log order equals its
// commit order.  The log is also read back in append order, the order a
// follower applies it, and must replay to the same state.
func TestShardWALMixedWriters(t *testing.T) {
	fs := wal.NewMemFS()
	m, _ := newWALMap(t, 4, fs)
	add := func(old, new uint64) uint64 { return old + new }
	m.StartBatching(batch.Config{Clients: 1, MaxBatch: 16}, add)
	const keys = 12
	iters := 150
	if testing.Short() {
		iters = 50
	}
	writers := []func(n uint64) error{
		func(n uint64) error {
			if n%3 == 0 {
				return m.Delete(n % keys)
			}
			return m.Insert(n%keys, n)
		},
		func(n uint64) error { return m.InsertWith((n*5)%keys, 1, add) },
		func(n uint64) error {
			return m.Update(func(tx *Txn[uint64, uint64, struct{}]) {
				tx.InsertWith(n%keys, 2, add)
				tx.Insert((n+1)%keys, n)
				tx.Delete((n + 7) % keys)
			})
		},
		func(n uint64) error {
			return m.UpdateAtomic(func(tx *Txn[uint64, uint64, struct{}]) {
				tx.InsertWith((n*3)%keys, 3, add)
				tx.InsertWith((n*3+1)%keys, 3, add)
			})
		},
		func(n uint64) error {
			a, b := (n*7)%keys, (n*7+2)%keys
			return m.UpdateAtomicKeys([]uint64{a, b}, func(tx *Txn[uint64, uint64, struct{}]) {
				va, _ := tx.Get(a)
				vb, _ := tx.Get(b)
				tx.Insert(a, vb+1)
				tx.Insert(b, va+1)
			})
		},
		func(n uint64) error {
			return m.InsertBatch([]ftree.Entry[uint64, uint64]{
				{Key: n % keys, Val: 4}, {Key: (n + 5) % keys, Val: 4}, {Key: (n + 6) % keys, Val: 4},
			}, add)
		},
		func(n uint64) error {
			errc := make(chan error, 1)
			m.SubmitAsync(0, batch.Request[uint64, uint64]{Op: batch.OpInsert, Key: (n * 11) % keys, Val: 5},
				func(err error) { errc <- err })
			return <-errc
		},
	}
	var wg sync.WaitGroup
	for w, write := range writers {
		wg.Add(1)
		go func(w int, write func(uint64) error) {
			defer wg.Done()
			for n := uint64(0); n < uint64(iters); n++ {
				if err := write(n); err != nil {
					t.Errorf("writer %d, step %d: %v", w, n, err)
					return
				}
			}
		}(w, write)
	}
	wg.Wait()
	want := dump(m)

	// Followers apply records in log order, not GSN order: per shard, the
	// log must list records in commit order — GSNs strictly increasing —
	// and replaying them in that order must rebuild the live map.
	tl, err := m.WAL().Tail(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint64{}
	last := make([]uint64, m.NumShards())
	for {
		recs, err := tl.Next(false)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			touch := func(k uint64) {
				i := m.ShardFor(k)
				if r.GSN < last[i] {
					t.Fatalf("shard %d: record gsn=%d logged after gsn=%d", i, r.GSN, last[i])
				}
				last[i] = r.GSN
			}
			err := decodeWALOps(&m.wal.cfg, r.Payload,
				func(k, v uint64) { touch(k); model[k] = v },
				func(k uint64) { touch(k); delete(model, k) })
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	tl.Close()
	if len(model) != len(want) {
		t.Fatalf("log-order replay has %d keys, want %d: got %v want %v", len(model), len(want), model, want)
	}
	for k, v := range want {
		if mv, ok := model[k]; !ok || mv != v {
			t.Fatalf("log-order replay: key %d = (%d, %v), want %d", k, mv, ok, v)
		}
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _ := reopenWALMap(t, 4, fs)
	defer m2.Close()
	got := dump(m2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d: got %v want %v", len(got), len(want), got, want)
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("key %d: recovered (%d, %v), want %d (got %v want %v)", k, gv, ok, v, got, want)
		}
	}
}

// Package shard hash-partitions the transactional map across S independent
// core.Map instances.  Each shard has its own Version Maintenance object,
// its own pid space and its own allocation accounting, so the paper's
// per-structure guarantees hold shard-locally: O(P) version delay, precise
// collection and Live() == 0 after Close apply to every shard on its own.
// Sharding multiplies write throughput — S combining writers commit in
// parallel instead of one — which is how follow-up work scales multiversion
// GC (Ben-David et al., DISC 2021; Wei & Fatourou 2022: partition version
// tracking, bound it per structure).
//
// # Snapshot semantics: two modes
//
// The package offers two commit/read modes and lets every call site pick:
//
//   - Per-shard (Update, View): the fast default.  A View pins one version
//     per shard — each individually a consistent, immutable snapshot — but
//     the S versions are pinned at slightly different times, so the
//     combination is not a single global serialization point.  Update is
//     atomic per shard: all buffered writes touching one shard commit in a
//     single write transaction, but different shards commit in separate
//     transactions, and a concurrent View may observe some of them and not
//     others.
//   - Global (UpdateAtomic, ViewConsistent): every committed root is
//     stamped from one shared global commit sequence number (GSN).
//     UpdateAtomic installs all touched shards' roots under one GSN behind
//     per-shard install seqlocks, so the transaction is never observed
//     torn by ViewConsistent; ViewConsistent double-collects the per-shard
//     (latest-GSN, install-seq) vector around pinning, retrying until the
//     seqlock vector is stable (stamps collected before the pins bound the
//     cut either way) and falling back to briefly fencing the writer
//     slots.  UpdateAtomicKeys adds full optimistic concurrency on top:
//     every authoritative read inside the transaction is sampled against
//     per-key version stripes (core/keyver.go), the write set's stripes
//     are install-locked, and the read set is revalidated at install time
//     with the locks held through publication — so a committed transaction
//     is a true multi-key compare-and-swap, serializable against all
//     writers, including plain point updates that never take the writer
//     slot (they stall off the locked write set and are validation
//     conflicts on the read set).  See the GSN protocol and OCC notes in
//     core/stamp.go, core/keyver.go and DESIGN.md.
//
// Operations whose keys live on one shard (point reads, per-key updates, a
// Range that happens to hash into one shard) keep the paper's full
// guarantees in both modes; single-shard commits carry GSN stamps too, so
// they order correctly under consistent views at no extra cost beyond two
// atomic RMWs per commit.
//
// No pid appears anywhere in this package's API: process identities are
// leased internally from each shard's pool (core.Handle), through the
// cached-handle fast path (core.Map.WithCached) so back-to-back point ops
// skip the pool's mutexes entirely.  Each leased pid brings its own node
// arena (ftree.Arena), so a shard's write path also allocates lock-free:
// warm point updates touch no shared allocator state at all.  Multi-shard
// operations lease in ascending shard order, which makes blocking
// admission control deadlock-free (ordered resource acquisition).
package shard

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mvgc/internal/batch"
	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// Config sizes a sharded map.
type Config[K any] struct {
	// Shards is the number of independent core.Map instances S.
	Shards int
	// Procs is the per-shard process count P: each shard admits up to P
	// concurrent transactions (leased handles) on its own VM instance.
	Procs int
	// Algorithm is the Version Maintenance algorithm every shard uses;
	// empty selects pswf.
	Algorithm string
	// Hash maps a key to the shard space; it must be deterministic.  The
	// shard index is Hash(k) % Shards.
	Hash func(K) uint64
	// NoRecycle disables every shard's node recycling (the pid-local
	// magazine allocator); see core.Config.NoRecycle.
	NoRecycle bool
}

// consistentRetries bounds ViewConsistent's optimistic double-collect
// attempts before it falls back to fencing the writer slots.  Small: each
// failed attempt costs S pins, and the fence is cheap for writers that
// never take the slot (all plain transactions).
const consistentRetries = 8

// Map is a hash-sharded multiversion map: S independent core.Maps behind
// one pid-free, goroutine-safe API.
type Map[K, V, A any] struct {
	shards   []*core.Map[K, V, A]
	hash     func(K) uint64
	batchers []*batch.Batcher[K, V, A] // non-nil between StartBatching and Close

	// gsn is the global commit sequence source shared by every shard
	// (core.Config.Stamp): single-shard commits stamp themselves from it,
	// and UpdateAtomic allocates one stamp per cross-shard transaction.
	gsn atomic.Uint64
	// maxCollects overrides consistentRetries when positive (tests force
	// the fence fallback with maxCollects == 1 and no stable window).
	maxCollects int
	// snapRetries / fenced count ViewConsistent's failed double-collect
	// attempts and fence fallbacks, for tests and tuning.
	snapRetries atomic.Int64
	fenced      atomic.Int64
	// occAborts counts UpdateAtomicKeys transactions aborted and retried
	// because install-time validation found a read key's version stripe
	// moved (an unfenced writer hit the read set).
	occAborts atomic.Int64
	// testPostValidate, when non-nil, runs inside an UpdateAtomicKeys
	// install after its read-set validation passes and before any shard's
	// root is published — the validate-to-install window.  Tests use it to
	// land racing work deterministically in the window the install locks
	// must protect; it must not itself commit a fenced or stripe-stalled
	// write synchronously (the slots and write locks are held).
	testPostValidate func()

	// scans pools merge state for ordered cross-shard reads (see scan.go):
	// S reusable tree iterators plus the loser-tree array, leased per scan
	// so a warm fixed-length scan allocates nothing.
	scans sync.Pool

	// wal, when non-nil, is the attached redo log, the commit pipeline's
	// sink (commit.go, wal.go); walMu[i] orders shard i's records.
	wal    *walBinding[K, V, A]
	walMu  []sync.Mutex
	ckptMu sync.Mutex

	// closing/gates/closedCh make Close idempotent and safe against
	// in-flight operations: every front-door method passes an enter/exit
	// gate on its (first) shard, Close flips closing and waits for the
	// gates to drain before tearing anything down, and a second Close
	// blocks on closedCh until the first finishes.
	closing  atomic.Bool
	closedCh chan struct{}
	gates    []gate
}

// gate is a padded in-flight counter; one per shard so hot point ops on
// different shards never share a cache line.
type gate struct {
	n atomic.Int64
	_ [56]byte
}

// enter registers an in-flight operation against shard i's gate; false
// means the map is closing and the operation must not touch the shards.
// The increment is published before closing is checked, so Close's drain
// (which flips closing first, then scans the gates) cannot miss us.
func (m *Map[K, V, A]) enter(i int) bool {
	g := &m.gates[i]
	g.n.Add(1)
	if m.closing.Load() {
		g.n.Add(-1)
		return false
	}
	return true
}

func (m *Map[K, V, A]) exit(i int) { m.gates[i].n.Add(-1) }

// New builds a sharded map.  mkOps must return a fresh ftree.Ops per call:
// every shard gets its own, so allocation accounting (Ops().Live()) stays
// precise per shard.  initial is partitioned by hash across the shards.
func New[K, V, A any](cfg Config[K], mkOps func() *ftree.Ops[K, V, A], initial []ftree.Entry[K, V]) (*Map[K, V, A], error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("shard: Shards must be positive, got %d", cfg.Shards)
	}
	if cfg.Hash == nil {
		return nil, fmt.Errorf("shard: Hash is required")
	}
	parts := make([][]ftree.Entry[K, V], cfg.Shards)
	for _, e := range initial {
		i := int(cfg.Hash(e.Key) % uint64(cfg.Shards))
		parts[i] = append(parts[i], e)
	}
	m := &Map[K, V, A]{
		hash:     cfg.Hash,
		walMu:    make([]sync.Mutex, cfg.Shards),
		gates:    make([]gate, cfg.Shards),
		closedCh: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		s, err := core.NewMap(core.Config{Algorithm: cfg.Algorithm, Procs: cfg.Procs, NoRecycle: cfg.NoRecycle, Stamp: &m.gsn}, mkOps(), parts[i])
		if err != nil {
			for _, prev := range m.shards {
				prev.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		// Every shard maintains per-key version stripes so UpdateAtomicKeys
		// can validate its reads against unfenced point writers; the shard
		// hash doubles as the stripe hash (core remixes it).
		s.EnableKeyVersions(cfg.Hash, 0)
		m.shards = append(m.shards, s)
	}
	return m, nil
}

// NumShards returns S.
func (m *Map[K, V, A]) NumShards() int { return len(m.shards) }

// ShardFor returns the index of the shard owning key k.
func (m *Map[K, V, A]) ShardFor(k K) int { return int(m.hash(k) % uint64(len(m.shards))) }

// Shard exposes one underlying core.Map for handle-based access (long-lived
// workers that want to lease a per-shard identity once instead of per-op).
func (m *Map[K, V, A]) Shard(i int) *core.Map[K, V, A] { return m.shards[i] }

// Get runs a point read as a delay-free read transaction on k's shard.
// After Close it reports absent.
func (m *Map[K, V, A]) Get(k K) (v V, ok bool) {
	i := m.ShardFor(k)
	if !m.enter(i) {
		return
	}
	defer m.exit(i)
	m.shards[i].WithCached(func(h *core.Handle[K, V, A]) {
		h.Read(func(s core.Snapshot[K, V, A]) { v, ok = s.Get(k) })
	})
	return
}

// Has reports whether k is present.
func (m *Map[K, V, A]) Has(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Insert adds or replaces one entry in a single-shard write transaction.
// With a WAL attached the write is durable (per the log's fsync policy)
// when Insert returns nil; a non-nil error means the write must be treated
// as lost — ErrClosed before any effect, a log error after the log was
// poisoned (fail-fast: once the log errors, writes are refused before
// touching memory).
func (m *Map[K, V, A]) Insert(k K, v V) error {
	i := m.ShardFor(k)
	if !m.enter(i) {
		return ErrClosed
	}
	defer m.exit(i)
	return m.commitShard(nil, i, false, func(tx *core.Txn[K, V, A], e *walEnc[K, V, A]) {
		tx.Insert(k, v)
		e.appendInsert(k, v)
	})
}

// InsertWith adds one entry, combining with any existing value.  The
// logged record carries the combined post-image (read back inside the
// committing transaction), so replay never re-applies the delta.
func (m *Map[K, V, A]) InsertWith(k K, v V, comb func(old, new V) V) error {
	i := m.ShardFor(k)
	if !m.enter(i) {
		return ErrClosed
	}
	defer m.exit(i)
	return m.commitShard(nil, i, false, func(tx *core.Txn[K, V, A], e *walEnc[K, V, A]) {
		tx.InsertWith(k, v, comb)
		e.postImage(tx, k, v)
	})
}

// Delete removes one entry in a single-shard write transaction.
func (m *Map[K, V, A]) Delete(k K) error {
	i := m.ShardFor(k)
	if !m.enter(i) {
		return ErrClosed
	}
	defer m.exit(i)
	return m.commitShard(nil, i, false, func(tx *core.Txn[K, V, A], e *walEnc[K, V, A]) {
		tx.Delete(k)
		e.appendDelete(k)
	})
}

// InsertBatch partitions the batch by shard and commits each part as one
// atomic per-shard write transaction, all shards in parallel; nil comb
// overwrites.  Atomicity is per shard, not global.  With a WAL attached
// each shard's part is one record (combined post-images read back inside
// the committing transaction) and the fsync is grouped: one Commit for the
// whole batch.
func (m *Map[K, V, A]) InsertBatch(entries []ftree.Entry[K, V], comb func(old, new V) V) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	parts := make([][]ftree.Entry[K, V], len(m.shards))
	for _, e := range entries {
		i := m.ShardFor(e.Key)
		parts[i] = append(parts[i], e)
	}
	return m.batchFanout(len(parts), func(i int) bool { return len(parts[i]) > 0 },
		func(i int, tx *core.Txn[K, V, A], e *walEnc[K, V, A]) {
			tx.InsertBatch(parts[i], comb)
			e.inserts(tx, parts[i], comb)
		})
}

// DeleteBatch removes keys, one atomic write transaction per affected
// shard, all shards in parallel; with a WAL attached, one record per shard
// and one grouped fsync.
func (m *Map[K, V, A]) DeleteBatch(keys []K) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	parts := make([][]K, len(m.shards))
	for _, k := range keys {
		i := m.ShardFor(k)
		parts[i] = append(parts[i], k)
	}
	return m.batchFanout(len(parts), func(i int) bool { return len(parts[i]) > 0 },
		func(i int, tx *core.Txn[K, V, A], e *walEnc[K, V, A]) {
			tx.DeleteBatch(parts[i])
			e.appendDeletes(parts[i])
		})
}

// batchFanout commits one write transaction per non-empty shard part, all
// in parallel, as one commit group: with a log, a single group Commit
// covers the whole fan-out.  The first error wins (sticky log errors make
// the rest fail identically anyway).
func (m *Map[K, V, A]) batchFanout(n int, nonEmpty func(i int) bool, apply func(i int, tx *core.Txn[K, V, A], e *walEnc[K, V, A])) error {
	var grp commitGroup
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		if !nonEmpty(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.commitShard(&grp, i, false, func(tx *core.Txn[K, V, A], e *walEnc[K, V, A]) { apply(i, tx, e) })
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return m.syncGroup(&grp)
}

// Len returns the total entry count.  Each shard is counted from its own
// consistent snapshot, but the snapshots are taken sequentially, so under
// concurrent writes the total is approximate (per-shard semantics).
func (m *Map[K, V, A]) Len() int64 {
	if !m.enter(0) {
		return 0
	}
	defer m.exit(0)
	var n int64
	for _, s := range m.shards {
		s.WithCached(func(h *core.Handle[K, V, A]) {
			h.Read(func(sn core.Snapshot[K, V, A]) { n += sn.Len() })
		})
	}
	return n
}

// withPinned acquires one handle and one version per shard in ascending
// shard order, runs f against the pinned snapshots, then releases
// everything in reverse.  All fan-out read modes are built on it.
func (m *Map[K, V, A]) withPinned(f func(snaps []core.Snapshot[K, V, A])) {
	snaps := make([]core.Snapshot[K, V, A], len(m.shards))
	var rec func(i int)
	rec = func(i int) {
		if i == len(m.shards) {
			f(snaps)
			return
		}
		m.shards[i].WithCached(func(h *core.Handle[K, V, A]) {
			h.Read(func(s core.Snapshot[K, V, A]) {
				snaps[i] = s
				rec(i + 1)
			})
		})
	}
	rec(0)
}

// View runs f against a Snap that pins one version per shard.  Handles and
// versions are acquired in ascending shard order before f runs and released
// after it returns, so f sees S stable immutable snapshots — per-shard
// consistent, NOT a single global snapshot: a concurrent cross-shard
// transaction (UpdateAtomic or plain Update) may be visible on some shards
// of the Snap and not others.  Use ViewConsistent when that matters.
// View blocks while any shard's admission pool is exhausted.  After Close
// it returns without running f.
func (m *Map[K, V, A]) View(f func(s Snap[K, V, A])) {
	if !m.enter(0) {
		return
	}
	defer m.exit(0)
	m.withPinned(func(snaps []core.Snapshot[K, V, A]) {
		f(Snap[K, V, A]{m: m, snaps: snaps})
	})
}

// ViewConsistent runs f against a Snap whose S pinned versions form one
// consistent global cut: no cross-shard UpdateAtomic transaction is ever
// observed torn, and the Snap carries the per-shard GSN vector it reflects
// (Snap.GSNs).  The guarantee, precisely: for every shard i, the pinned
// root contains all commits stamped <= GSNs()[i] (and, transiently, may
// contain later single-shard commits, which are atomic on their own); for
// every UpdateAtomic transaction, either all or none of its per-shard roots
// are visible.
//
// Protocol (why no reader lock): collect the per-shard (latest-GSN,
// install-seq) vector, pin one version per shard, collect again.  Stable
// even seqlocks prove no atomic install overlapped the pins — the cut is
// tear-free — and because stamps are allocated only after their root is
// visible (core/stamp.go), the GSN vector collected *before* the pins is a
// sound prefix bound whether or not stamps moved while pinning (if they
// also held still, the cut is additionally exact: no commit of any kind
// landed during it).  Only seqlock instability forces a retry; after
// consistentRetries failed attempts (sustained atomic-install overlap) it
// falls back to briefly fencing the writer slots in ascending shard order:
// with the slots held no atomic install or combiner commit can run, so the
// fenced attempt is definitive.  Plain writers are never blocked in either
// path.  After Close it returns without running f.
func (m *Map[K, V, A]) ViewConsistent(f func(s Snap[K, V, A])) {
	if !m.enter(0) {
		return
	}
	defer m.exit(0)
	m.viewConsistent(f)
}

// viewConsistent is ViewConsistent without the close gate, for internal
// callers (Checkpoint) that already hold a gate entry.
func (m *Map[K, V, A]) viewConsistent(f func(s Snap[K, V, A])) {
	n := len(m.shards)
	gsns := make([]uint64, n)
	seqs := make([]uint64, n)
	max := m.maxCollects
	if max <= 0 {
		max = consistentRetries
	}
	for try := 0; try < max; try++ {
		stable := true
		for i, s := range m.shards {
			q := s.InstallSeq()
			if q&1 != 0 { // an atomic install is mid-flight; pinning now would be wasted
				stable = false
				break
			}
			seqs[i] = q
			gsns[i] = s.LatestStamp()
		}
		if !stable {
			m.snapRetries.Add(1)
			runtime.Gosched()
			continue
		}
		done := false
		m.withPinned(func(snaps []core.Snapshot[K, V, A]) {
			for i, s := range m.shards {
				if s.InstallSeq() != seqs[i] {
					return // an atomic install overlapped the pins: retry
				}
			}
			// Seqlocks held still: the cut is tear-free, and gsns — read
			// before the pins — is a sound prefix bound even if plain
			// commits moved the stamps meanwhile.
			done = true
			f(Snap[K, V, A]{m: m, snaps: snaps, gsns: gsns})
		})
		if done {
			return
		}
		m.snapRetries.Add(1)
	}
	// Fence fallback: exclude atomic installers (and combiner commits) for
	// the duration of one pin pass.  The GSN vector is collected before
	// pinning — stamp-after-visibility makes it a sound prefix bound — and
	// needs no second collect: the slots guarantee no install can tear the
	// cut, and single-shard commits slipping in are atomic on their own.
	// The slots are released as soon as the last version is pinned: pinned
	// versions are immutable, so f — often a long scan, exactly what
	// ViewConsistent is for — must not extend the writer stall.
	m.fenced.Add(1)
	for _, s := range m.shards {
		s.LockWriterSlot()
	}
	unfenced := false
	unfence := func() {
		if !unfenced {
			unfenced = true
			for i := n - 1; i >= 0; i-- {
				m.shards[i].UnlockWriterSlot()
			}
		}
	}
	defer unfence()
	for i, s := range m.shards {
		gsns[i] = s.LatestStamp()
	}
	m.withPinned(func(snaps []core.Snapshot[K, V, A]) {
		unfence()
		f(Snap[K, V, A]{m: m, snaps: snaps, gsns: gsns})
	})
}

// ConsistentStats reports ViewConsistent's failed double-collect attempts
// and fence fallbacks since the map was created.
func (m *Map[K, V, A]) ConsistentStats() (retries, fenced int64) {
	return m.snapRetries.Load(), m.fenced.Load()
}

// Snap is a fan-out read view: one pinned version per shard, valid only
// within the View or ViewConsistent callback.  Under View the S versions
// are per-shard consistent only; under ViewConsistent they form one global
// cut and GSNs reports the commit-sequence vector the cut reflects.
type Snap[K, V, A any] struct {
	m     *Map[K, V, A]
	snaps []core.Snapshot[K, V, A]
	gsns  []uint64 // non-nil only for ViewConsistent snaps
}

// Shard exposes shard i's pinned snapshot.
func (s Snap[K, V, A]) Shard(i int) core.Snapshot[K, V, A] { return s.snaps[i] }

// GSNs returns the per-shard global-commit-sequence vector this snap
// reflects, or nil for a plain View snap.  For a ViewConsistent snap,
// shard i's pinned root contains every commit stamped <= GSNs()[i], and no
// UpdateAtomic transaction is visible on some shards but not others.  The
// slice is valid only within the callback and must not be mutated.
func (s Snap[K, V, A]) GSNs() []uint64 { return s.gsns }

// Consistent reports whether this snap was produced by ViewConsistent and
// therefore carries the cross-shard atomicity guarantee.
func (s Snap[K, V, A]) Consistent() bool { return s.gsns != nil }

// Get returns the value stored under k in k's shard snapshot.
func (s Snap[K, V, A]) Get(k K) (V, bool) { return s.snaps[s.m.ShardFor(k)].Get(k) }

// Has reports whether k is present.
func (s Snap[K, V, A]) Has(k K) bool { return s.snaps[s.m.ShardFor(k)].Has(k) }

// Len sums the per-shard snapshot sizes.  Under View the per-shard counts
// are pinned at slightly different instants, so under concurrent writes the
// total is approximate (per-shard semantics).  Under ViewConsistent the
// counts form one tear-free cut: no atomic transaction is half-counted,
// though concurrent plain single-key commits may each be included or not
// (each wholly, they are atomic on their own).
func (s Snap[K, V, A]) Len() int64 {
	var n int64
	for _, sn := range s.snaps {
		n += sn.Len()
	}
	return n
}

// AugRange folds the augmented value over keys in [lo, hi] across all
// shards (each shard in O(log n)); the per-shard results are combined with
// the augmenter's Combine, which must be commutative for hash-partitioned
// key sets (true for sums, maxima and all symmetric monoids).
func (s Snap[K, V, A]) AugRange(lo, hi K) A {
	ops := s.m.shards[0].Ops()
	a := ops.Aug.Zero()
	for _, sn := range s.snaps {
		a = ops.Aug.Combine(a, sn.AugRange(lo, hi))
	}
	return a
}

// Range returns the entries with keys in [lo, hi] across all shards,
// merged into global key order.  It materializes the whole result; use
// RangeFunc, ScanFunc or ForEachCond to stream with early exit instead.
func (s Snap[K, V, A]) Range(lo, hi K) []ftree.Entry[K, V] {
	var out []ftree.Entry[K, V]
	s.RangeFunc(lo, hi, func(k K, v V) bool {
		out = append(out, ftree.Entry[K, V]{Key: k, Val: v})
		return true
	})
	return out
}

// Txn buffers a cross-shard write transaction: Insert and Delete record
// intents, and Update (per-shard atomic) or UpdateAtomic (globally atomic,
// one GSN) replays each shard's intents in order.  Reads see the
// transaction's own buffered writes first — including deletes, so a
// get-after-delete inside the transaction reports absence — then the
// shard's current committed version.  Under UpdateAtomicKeys every
// authoritative read is additionally sampled into a read set that the
// install phase validates (and aborts on) against concurrent point writers.
type Txn[K, V, A any] struct {
	m       *Map[K, V, A]
	intents [][]intent[K, V]

	// occ marks an UpdateAtomicKeys transaction: authoritative reads go
	// through the stable-read protocol and land in reads, the read set the
	// install phase validates (and aborts on) against unfenced writers.
	occ   bool
	reads []readSample
}

type intent[K, V any] struct {
	del  bool
	key  K
	val  V
	comb func(old, new V) V // non-nil: combine with the value below (InsertWith)
}

// readSample records one validated optimistic read: the key's version
// stripe on its shard and the stable word observed there when the value was
// read.  Validation re-loads the stripe and requires the identical word —
// which proves no writer so much as started a commit on the stripe since.
type readSample struct {
	shard  int
	stripe uint64
	word   uint64
}

// Insert buffers an insert-or-replace of (k, v).
func (t *Txn[K, V, A]) Insert(k K, v V) {
	i := t.m.ShardFor(k)
	t.intents[i] = append(t.intents[i], intent[K, V]{key: k, val: v})
}

// InsertWith buffers an insert of (k, v) that combines with any existing
// value at commit time: comb(old, v) when k is present, plain v otherwise.
// Because the combination is evaluated against the value current at
// commit — and re-evaluated on conflict retry — commutative deltas (add,
// max, ...) are immune to lost updates even when the transaction's own
// reads were stale, which is what makes InsertWith the right primitive for
// transfers and counters.
func (t *Txn[K, V, A]) InsertWith(k K, v V, comb func(old, new V) V) {
	i := t.m.ShardFor(k)
	t.intents[i] = append(t.intents[i], intent[K, V]{key: k, val: v, comb: comb})
}

// Delete buffers a removal of k.
func (t *Txn[K, V, A]) Delete(k K) {
	i := t.m.ShardFor(k)
	t.intents[i] = append(t.intents[i], intent[K, V]{del: true, key: k})
}

// touched returns the indices of shards with at least one buffered intent,
// in ascending order (intents is indexed by shard).
func (t *Txn[K, V, A]) touched() []int {
	var out []int
	for i, list := range t.intents {
		if len(list) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Get reads through the transaction's buffered writes (latest intent for k
// wins; a buffered delete reports absence), falling back to a point read of
// k's shard's current version.  Combining intents (InsertWith) are folded,
// in buffer order, on top of the latest authoritative value below them.
func (t *Txn[K, V, A]) Get(k K) (V, bool) {
	i := t.m.ShardFor(k)
	cmp := t.m.shards[i].Ops().Cmp
	list := t.intents[i]
	// Scan back to the latest plain insert or delete of k, collecting the
	// combining intents stacked above it.
	var combs []int
	base := -1
	for j := len(list) - 1; j >= 0; j-- {
		if cmp(list[j].key, k) != 0 {
			continue
		}
		if list[j].comb != nil {
			combs = append(combs, j)
			continue
		}
		base = j
		break
	}
	var v V
	var ok bool
	switch {
	case base >= 0 && list[base].del:
		// absent below the combs
	case base >= 0:
		v, ok = list[base].val, true
	case t.occ:
		v, ok = t.readTracked(i, k)
	default:
		v, ok = t.m.Get(k)
	}
	for j := len(combs) - 1; j >= 0; j-- { // chronological order
		in := list[combs[j]]
		if ok {
			v = in.comb(v, in.val)
		} else {
			v, ok = in.val, true
		}
	}
	return v, ok
}

// readTracked is the optimistic stable read: load k's version stripe (a
// stable word, waiting out in-flight writers and foreign install locks
// with bounded backoff), read the value, and accept only if the stripe did
// not move — so the recorded word names exactly the write-state the value
// came from.  The (shard, stripe, word) sample joins the transaction's
// read set for install-time validation.  The wait is bounded by commit
// brackets and install windows, which contain no user code — but a
// wholesale bracket (a SetRoot or table-scale batch commit on the read
// shard) marks every stripe for its whole commit, so a read colliding with
// one waits for that commit's Set; see the UpdateAtomicKeys contract.
func (t *Txn[K, V, A]) readTracked(i int, k K) (V, bool) {
	s := t.m.shards[i]
	stripe := s.KeyStripe(k)
	var v V
	var ok bool
	for n := 0; ; n++ {
		w := s.StableStripeWord(stripe)
		s.WithCached(func(h *core.Handle[K, V, A]) {
			h.Read(func(sn core.Snapshot[K, V, A]) { v, ok = sn.Get(k) })
		})
		if s.StripeWord(stripe) == w {
			t.reads = append(t.reads, readSample{shard: i, stripe: stripe, word: w})
			return v, ok
		}
		core.Backoff(n)
	}
}

// validateReads re-loads every read sample's stripe and reports whether all
// still hold their recorded words.  Equality means no writer entered the
// stripe since the read — every sampled value is still current — so the
// caller may treat "now" as the moment all its reads happened at once.
// wstripes lists, per shard, the stripes the calling transaction has
// install-locked (its write set): on those, and only those, the lock bit is
// masked before comparing — the caller's own lock is not a conflict, but a
// FOREIGN lock means another transaction is mid-install over the sampled
// key and the read must not survive validation.
func (m *Map[K, V, A]) validateReads(reads []readSample, wstripes [][]uint64) bool {
	for _, r := range reads {
		w := m.shards[r.shard].StripeWord(r.stripe)
		if w&core.StripeLock != 0 && wstripes != nil && slices.Contains(wstripes[r.shard], r.stripe) {
			w &^= core.StripeLock
		}
		if w != r.word {
			return false
		}
	}
	return true
}

// replay applies a shard's buffered intents, in order, to a core write
// transaction.
func replay[K, V, A any](tx *core.Txn[K, V, A], list []intent[K, V]) {
	for _, in := range list {
		switch {
		case in.del:
			tx.Delete(in.key)
		case in.comb != nil:
			tx.InsertWith(in.key, in.val, in.comb)
		default:
			tx.Insert(in.key, in.val)
		}
	}
}

// Update runs a buffered cross-shard write transaction in the fast
// per-shard mode: f records intents, then each affected shard commits its
// intents atomically (in ascending shard order).  Atomicity is per shard;
// there is no global commit point, and a concurrent View or ViewConsistent
// may observe some shards' commits and not others'.  Use UpdateAtomic when
// the transaction must never be seen torn.  With a WAL attached each
// shard's commit appends one record and a single group fsync covers the
// whole transaction; durability (like atomicity) is per shard — a crash
// between per-shard fsync points can persist some shards' legs and not
// others'.
func (m *Map[K, V, A]) Update(f func(t *Txn[K, V, A])) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	t := &Txn[K, V, A]{m: m, intents: make([][]intent[K, V], len(m.shards))}
	f(t)
	var grp commitGroup
	for i, list := range t.intents {
		if len(list) == 0 {
			continue
		}
		err := m.commitShard(&grp, i, false, func(tx *core.Txn[K, V, A], e *walEnc[K, V, A]) {
			replay(tx, list)
			e.intents(tx, list)
		})
		if err != nil {
			return err
		}
	}
	return m.syncGroup(&grp)
}

// UpdateAtomic runs a buffered cross-shard write transaction with a global
// commit point: f records intents, then every affected shard's new root is
// installed under ONE global commit sequence number, so ViewConsistent
// never observes the transaction torn (plain View remains per-shard and
// may).  The two-phase protocol: acquire the touched shards' writer slots
// in ascending shard order (deadlock-free), drive their install seqlocks
// odd, build and install each shard's new root through that shard's leased
// pid and arena (conflicting plain writers just force a per-shard rebuild,
// exactly core.Update's lock-free retry), allocate the transaction's GSN
// after the last install, publish it on every touched shard, drive the
// seqlocks even and release the slots.  Readers between the installs are
// exactly the window the seqlocks cover.
//
// Transactions touching a single shard skip the seqlock protocol — one
// shard's commit is already atomic and its normal stamp orders it globally
// — but still commit under that shard's writer slot, so they respect the
// fence UpdateAtomicKeys' stable reads and ViewConsistent's fallback rely
// on (an atomic transaction must never bypass another's fence, whatever
// its footprint).
func (m *Map[K, V, A]) UpdateAtomic(f func(t *Txn[K, V, A])) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	t := &Txn[K, V, A]{m: m, intents: make([][]intent[K, V], len(m.shards))}
	f(t)
	touched := t.touched()
	switch len(touched) {
	case 0:
		return nil
	case 1:
		list := t.intents[touched[0]]
		return m.commitShard(nil, touched[0], true, func(tx *core.Txn[K, V, A], e *walEnc[K, V, A]) {
			replay(tx, list)
			e.intents(tx, list)
		})
	}
	return m.commit(nil, touched, true, func(e *walEnc[K, V, A]) uint64 {
		g, _ := m.installLocked(touched, t.intents, nil, nil, nil, e)
		return g
	})
}

// UpdateAtomicKeys runs an atomic cross-shard transaction whose key
// footprint is declared up front, as a full optimistic-concurrency
// transaction in the classic lock-write-set / validate-read-set / install
// shape: reads inside f (Txn.Get) are sampled against per-key version
// stripes; at install time the write set's stripes are install-locked
// FIRST, then — after the touched shards' install seqlocks go odd — every
// sampled stripe is revalidated; on any mismatch nothing is installed and
// the whole transaction retries (f runs again against the new state).  The
// locks are held until the last shard's root is published, and unfenced
// writers' commit brackets stall on them (core/keyver.go), so no point
// write can land on the write set between validation and publication — the
// window in which an absolute install would silently erase it.  A
// committed transaction is therefore a true multi-key compare-and-swap,
// serializable against ALL writers: other atomic transactions and the
// batch combiners are excluded by the writer slots (held while f runs, so
// they cannot move the read set at all), unfenced point writers on the
// read set are caught by validation and on the write set are held off by
// the locks, and two concurrent OCC transactions reading each other's
// write sets cannot both commit (lock-before-validate means one observes
// the other's lock and aborts — no write skew).  f may run several times
// and must be a pure function of its reads; it may READ any key on any
// shard (all reads are validated), but may WRITE only keys whose shards
// are covered by the declared footprint — a write outside it panics before
// anything is installed.
//
// Progress is optimistic: each abort implies a conflicting point write
// committed on a read key's stripe, so the system as a whole advances, but
// a transaction hammered by unfenced writers on its own read set retries
// unboundedly (OCCAborts counts these).  The writer slots are released and
// reacquired between attempts, with escalating bounded backoff, so an
// abort storm never starves the footprint shards' combiners or other
// atomic transactions.  Two waits are worth knowing about: an unfenced
// point write whose key shares a stripe with the write set stalls for the
// install window (bounded: validation plus the per-shard Sets, no user
// code), and a read colliding with a wholesale stripe bracket — a SetRoot
// or table-scale batch commit on the read shard marks every stripe — waits
// for that commit's Set.
func (m *Map[K, V, A]) UpdateAtomicKeys(keys []K, f func(t *Txn[K, V, A])) error {
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	inFootprint := make([]bool, len(m.shards))
	touched := make([]int, 0, len(keys))
	for _, k := range keys {
		if i := m.ShardFor(k); !inFootprint[i] {
			inFootprint[i] = true
			touched = append(touched, i)
		}
	}
	sort.Ints(touched)
	// One Txn, write-stripe list set and handle buffer serve every
	// attempt: an abort storm (sustained unfenced writes on the read set)
	// retries with the buffers reset in place, so a retry's allocations
	// are only the install path's short-lived closures and whatever f
	// itself does.
	t := &Txn[K, V, A]{m: m, intents: make([][]intent[K, V], len(m.shards)), occ: true}
	wstripes := make([][]uint64, len(m.shards))
	hbuf := make([]*core.Handle[K, V, A], len(m.shards))
	for attempt := 0; ; attempt++ {
		committed := false
		err := m.commit(nil, touched, true, func(e *walEnc[K, V, A]) uint64 {
			var g uint64
			g, committed = m.atomicKeysAttempt(inFootprint, t, wstripes, hbuf, f, e)
			return g
		})
		if committed || err != nil {
			return err
		}
		m.occAborts.Add(1)
		core.Backoff(attempt)
	}
}

// atomicKeysAttempt runs one validate-install attempt of an
// UpdateAtomicKeys transaction, inside the commit pipeline with the
// footprint shards' writer slots held — they are released between
// attempts, before the caller's backoff, so fenced writers on those shards
// make progress between aborts.  It returns the attempt's GSN and whether
// it committed.
func (m *Map[K, V, A]) atomicKeysAttempt(inFootprint []bool, t *Txn[K, V, A], wstripes [][]uint64, hbuf []*core.Handle[K, V, A], f func(t *Txn[K, V, A]), e *walEnc[K, V, A]) (uint64, bool) {
	for i := range t.intents {
		t.intents[i] = t.intents[i][:0]
	}
	t.reads = t.reads[:0]
	f(t)
	for i, list := range t.intents {
		if len(list) > 0 && !inFootprint[i] {
			panic(fmt.Sprintf("shard: UpdateAtomicKeys wrote shard %d outside the declared key footprint", i))
		}
	}
	// The write set's stripes, per shard.  Stale entries from a previous
	// attempt must not survive: validateReads masks the lock bit exactly on
	// the stripes listed here, and masking a stripe we did not lock this
	// attempt would validate a read another transaction's install is about
	// to overwrite.
	for i := range wstripes {
		wstripes[i] = wstripes[i][:0]
	}
	write := t.touched()
	for _, i := range write {
		for _, in := range t.intents[i] {
			wstripes[i] = append(wstripes[i], m.shards[i].KeyStripe(in.key))
		}
	}
	validate := func() bool {
		if !m.validateReads(t.reads, wstripes) {
			return false
		}
		if hook := m.testPostValidate; hook != nil {
			hook()
		}
		return true
	}
	return m.installLocked(write, t.intents, wstripes, hbuf, validate, e)
}

// OCCAborts reports how many UpdateAtomicKeys attempts were aborted by
// install-time read validation (each implies an unfenced point writer
// committed on the transaction's read set) since the map was created.
func (m *Map[K, V, A]) OCCAborts() int64 { return m.occAborts.Load() }

// installLocked is the install phase shared by UpdateAtomic and
// UpdateAtomicKeys: with the touched shards' writer slots held, it leases
// one handle per touched shard, install-locks the write set's stripes
// (wstripes, nil for UpdateAtomic — it validates nothing, so blind
// last-writer-wins races with point writers are its documented semantics
// and need no locks), and runs core.InstallAtomicValidated, which brackets
// the per-shard installs with the seqlocks, runs the validation gate while
// they are odd, and on success publishes one freshly allocated GSN on
// every touched shard.  It reports whether the transaction installed; the
// stripe locks are released on every exit, aborts and panics included.
//
// Ordering matters twice here.  The handles are leased BEFORE the stripes
// are locked: a point writer stalled on an install lock sits inside its
// transaction holding a pid, so leasing afterwards could find the pools
// drained by the very writers waiting on us — a deadlock.  Leasing first
// is safe because no stripe of these shards can be locked by anyone else
// (locking requires the writer slots we hold), so the pools churn.  And
// the stripes are locked BEFORE validation runs (inside
// InstallAtomicValidated), which is what makes validate-then-install
// atomic against unfenced writers; see core.InstallAtomicValidated.
// Each touched shard's install transaction encodes its post-images into e
// as the record's j-th leg, from inside the very transaction that commits
// them.  installLocked returns the transaction's GSN (0 when nothing
// installed) and whether it committed.
func (m *Map[K, V, A]) installLocked(touched []int, intents [][]intent[K, V], wstripes [][]uint64, hbuf []*core.Handle[K, V, A], validate func() bool, e *walEnc[K, V, A]) (uint64, bool) {
	var gsn uint64
	ok := false
	// hbuf lets UpdateAtomicKeys amortize the lease slots across retry
	// attempts; one-shot callers (UpdateAtomic) pass nil.
	handles := hbuf
	if handles == nil {
		handles = make([]*core.Handle[K, V, A], len(touched))
	}
	var rec func(j int)
	rec = func(j int) {
		if j < len(touched) {
			m.shards[touched[j]].WithCached(func(h *core.Handle[K, V, A]) {
				handles[j] = h
				rec(j + 1)
			})
			return
		}
		if wstripes != nil {
			for _, i := range touched {
				m.shards[i].LockStripes(wstripes[i])
			}
			defer func() {
				for _, i := range touched {
					m.shards[i].UnlockStripes(wstripes[i])
				}
			}()
		}
		gsn, ok = core.InstallAtomicValidated(m.shards, touched, validate, func() {
			for j, i := range touched {
				j, i := j, i
				list := intents[i]
				handles[j].UpdateUnstamped(func(tx *core.Txn[K, V, A]) {
					// The replay writes exactly the stripes this install
					// locked (when it locked any); without the declaration
					// its commit bracket would stall on our own locks.
					tx.HoldsStripeLocks()
					replay(tx, list)
					e.leg(j)
					e.intents(tx, list)
				})
			}
		})
	}
	rec(0)
	return gsn, ok
}

// StartBatching launches one Appendix-F combining writer per shard: each
// leases its own writer identity from its shard's pool and commits that
// shard's submissions as atomic batches.  cfg.Clients buffers are created
// on every shard, so any client id in 0..Clients-1 may submit keys bound
// for any shard.
func (m *Map[K, V, A]) StartBatching(cfg batch.Config, comb func(old, new V) V) {
	if m.batchers != nil {
		panic("shard: StartBatching called twice")
	}
	if !m.enter(0) {
		return
	}
	defer m.exit(0)
	m.batchers = make([]*batch.Batcher[K, V, A], len(m.shards))
	for i, s := range m.shards {
		b := batch.New(s, cfg, comb)
		b.SetPersist(m.persistHook(i, comb != nil))
		m.batchers[i] = b
		b.Start()
	}
}

// Submit routes a buffered update to its key's shard batcher.  Requires
// StartBatching.  After Close the request is dropped.
func (m *Map[K, V, A]) Submit(client int, r batch.Request[K, V]) {
	i := m.ShardFor(r.Key)
	if !m.enter(i) {
		return
	}
	defer m.exit(i)
	m.batchers[i].Submit(client, r)
}

// SubmitWait routes a buffered update and blocks until its shard's
// combiner has committed it.  After Close it returns immediately (the
// request is dropped).
func (m *Map[K, V, A]) SubmitWait(client int, r batch.Request[K, V]) {
	i := m.ShardFor(r.Key)
	if !m.enter(i) {
		return
	}
	defer m.exit(i)
	m.batchers[i].SubmitWait(client, r)
}

// SubmitAsync routes a buffered update and returns immediately; done runs
// exactly once on the owning shard's combiner goroutine after the commit
// containing the request has been resolved (see batch.Batcher.SubmitAsync
// for the callback contract: fast, non-blocking).  A nil error means the
// write committed — and, with a WAL attached, is durable per the log's
// fsync policy; ErrClosed (delivered synchronously when the map is
// closing) or a log error means it did not.  This is how a pipelined
// connection keeps many writes in flight without parking a goroutine per
// write.
func (m *Map[K, V, A]) SubmitAsync(client int, r batch.Request[K, V], done func(error)) {
	i := m.ShardFor(r.Key)
	if !m.enter(i) {
		if done != nil {
			done(ErrClosed)
		}
		return
	}
	defer m.exit(i)
	m.batchers[i].SubmitAsync(client, r, done)
}

// Flush blocks until everything the client submitted (on any shard) before
// the call has committed.  After Close it returns immediately.
func (m *Map[K, V, A]) Flush(client int) {
	if !m.enter(0) {
		return
	}
	defer m.exit(0)
	for _, b := range m.batchers {
		b.Flush(client)
	}
}

// StopBatching stops every shard's combiner after a final drain.  It is
// idempotent; Close calls it internally.
func (m *Map[K, V, A]) StopBatching() {
	if !m.enter(0) {
		return
	}
	defer m.exit(0)
	m.stopBatching()
}

func (m *Map[K, V, A]) stopBatching() {
	for _, b := range m.batchers {
		b.Stop()
	}
	m.batchers = nil
}

// Batches sums committed batch counts across shard combiners.
func (m *Map[K, V, A]) Batches() int64 {
	var n int64
	for _, b := range m.batchers {
		n += b.Batches()
	}
	return n
}

// Applied sums combiner-committed requests across shard combiners.
// Batches()/Applied() is the write-coalescing ratio: commits per submitted
// write, the number the network layer drives toward O(shards)/N.
func (m *Map[K, V, A]) Applied() int64 {
	var n int64
	for _, b := range m.batchers {
		n += b.Applied()
	}
	return n
}

// Commits sums committed write transactions across shards.
func (m *Map[K, V, A]) Commits() int64 {
	var n int64
	for _, s := range m.shards {
		n += s.Commits()
	}
	return n
}

// Aborts sums Set failures across shards.
func (m *Map[K, V, A]) Aborts() int64 {
	var n int64
	for _, s := range m.shards {
		n += s.Aborts()
	}
	return n
}

// Uncollected sums the retained version counts across shards; each shard
// individually respects its algorithm's bound (e.g. 2P+1 for PSWF).
func (m *Map[K, V, A]) Uncollected() int {
	var n int
	for _, s := range m.shards {
		n += s.Uncollected()
	}
	return n
}

// Live sums allocated-minus-freed nodes across shard allocators; zero
// after Close when no nodes leaked anywhere.
func (m *Map[K, V, A]) Live() int64 {
	var n int64
	for _, s := range m.shards {
		n += s.Ops().Live()
	}
	return n
}

// Close stops any batchers, closes the WAL (flushing and syncing its tail
// whatever the fsync policy, so everything acked — and everything
// committed — is on disk) and drains every shard.  It is idempotent and
// safe against concurrent operations: the first caller flips the closing
// flag, waits for every in-flight front-door operation to drain its gate,
// then tears down; operations arriving after the flip fail fast with
// ErrClosed (writes) or act as no-ops (reads); later Close calls block
// until the first finishes and return nil.  After Close, Live() reports
// leaked nodes across all shards.  The returned error is the WAL's close
// error, if any.
func (m *Map[K, V, A]) Close() error {
	if !m.closing.CompareAndSwap(false, true) {
		<-m.closedCh
		return nil
	}
	// Drain: every front-door method increments its gate before loading
	// closing, so once all gates read zero nothing is left inside and
	// nothing new can enter.
	for i := range m.gates {
		for m.gates[i].n.Load() != 0 {
			runtime.Gosched()
		}
	}
	if m.batchers != nil {
		m.stopBatching()
	}
	err := m.closeWAL()
	for _, s := range m.shards {
		s.Close()
	}
	close(m.closedCh)
	return err
}

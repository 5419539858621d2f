// WAL binding: the redo log as the commit pipeline's sink.
//
// The log (internal/wal) is a single GSN-keyed redo stream shared by all
// shards.  Soundness requires that, per shard, records reach the log in the
// order their commits became visible — the raw GSN allocation order is NOT
// that order, because a shard's stamp is allocated after its Set and two
// writers on one shard can be preempted between the two steps.  The commit
// pipeline (commit.go; DESIGN.md "Commit pipeline") holds each shard's
// walMu across {in-memory commit + Append}, which collapses per-shard log
// order onto per-shard commit order; cross-shard order between records is
// then exactly GSN order, because stamps are allocated from one shared
// source after visibility (core/stamp.go) and recovery replays records
// sorted by GSN.
//
// Records carry ABSOLUTE post-images (insert k=v / delete k), never deltas:
// a combining write (InsertWith, combiner batches with a comb) is resolved
// to its final value at log time, inside the committing transaction, so
// replay is idempotent and a record buried under a later one is simply
// overwritten.  Commits that publish nothing (a delete of an absent key)
// allocate no stamp and write no record.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/wal"
)

// ErrClosed is returned by write operations that arrive after Close has
// begun; the map's shards and log are (or are about to be) torn down.
var ErrClosed = errors.New("shard: map is closed")

// WALConfig binds a redo log to a sharded map.  The codecs translate keys
// and values to and from the log's byte payloads; Enc* append to dst and
// return the extended slice (so warm encodes reuse pooled buffers), Dec*
// parse exactly the bytes Enc* produced.
type WALConfig[K, V any] struct {
	// Log is the open redo log; the map takes ownership (Close closes it).
	Log *wal.Log
	// EncKey / DecKey encode one key.
	EncKey func(dst []byte, k K) []byte
	DecKey func(b []byte) (K, error)
	// EncVal / DecVal encode one value.
	EncVal func(dst []byte, v V) []byte
	DecVal func(b []byte) (V, error)
}

func (c *WALConfig[K, V]) validate() error {
	switch {
	case c.Log == nil:
		return errors.New("shard: WALConfig.Log is required")
	case c.EncKey == nil || c.DecKey == nil:
		return errors.New("shard: WALConfig key codec is required")
	case c.EncVal == nil || c.DecVal == nil:
		return errors.New("shard: WALConfig value codec is required")
	}
	return nil
}

// Record payload op tags.  A record is a concatenation of ops, applied in
// order at replay; the snapshot payload reuses the same stream (inserts
// only), so one decoder serves both.
const (
	walOpInsert = 1
	walOpDelete = 2
)

// walEnc is a pooled record encoder: buf accumulates the record, while
// scratch holds one key or value encode so its length can be written as a
// uvarint prefix before the bytes (codecs append open-endedly, so the
// length is only known after the fact).  A nil *walEnc is the in-memory
// sink: every encode method on it is a no-op.
type walEnc[K, V, A any] struct {
	cfg     *WALConfig[K, V]
	buf     []byte
	scratch []byte
	// marks[j] is where leg j's ops start in buf.  A leg's transaction
	// retries on conflict, re-running its encode, so each run rewinds to
	// its own mark first (leg) and never duplicates ops.
	marks []int
}

type walBinding[K, V, A any] struct {
	log  *wal.Log
	cfg  WALConfig[K, V]
	encs sync.Pool // *walEnc[K, V, A]
}

func (w *walBinding[K, V, A]) getEnc() *walEnc[K, V, A] {
	if e, ok := w.encs.Get().(*walEnc[K, V, A]); ok {
		e.buf = e.buf[:0]
		e.marks = e.marks[:0]
		return e
	}
	return &walEnc[K, V, A]{cfg: &w.cfg}
}

func (w *walBinding[K, V, A]) putEnc(e *walEnc[K, V, A]) { w.encs.Put(e) }

// leg starts (or, on a retry, restarts) the ops of leg j — the j-th shard
// transaction of the record, in order.
func (e *walEnc[K, V, A]) leg(j int) {
	if e == nil {
		return
	}
	if j < len(e.marks) {
		e.buf = e.buf[:e.marks[j]]
		e.marks = e.marks[:j+1]
		return
	}
	e.marks = append(e.marks, len(e.buf))
}

func (e *walEnc[K, V, A]) appendScratch() {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(e.scratch)))
	e.buf = append(e.buf, e.scratch...)
}

func (e *walEnc[K, V, A]) appendInsert(k K, v V) {
	if e == nil {
		return
	}
	e.buf = append(e.buf, walOpInsert)
	e.scratch = e.cfg.EncKey(e.scratch[:0], k)
	e.appendScratch()
	e.scratch = e.cfg.EncVal(e.scratch[:0], v)
	e.appendScratch()
}

func (e *walEnc[K, V, A]) appendDelete(k K) {
	if e == nil {
		return
	}
	e.buf = append(e.buf, walOpDelete)
	e.scratch = e.cfg.EncKey(e.scratch[:0], k)
	e.appendScratch()
}

func (e *walEnc[K, V, A]) appendDeletes(keys []K) {
	if e == nil {
		return
	}
	for _, k := range keys {
		e.appendDelete(k)
	}
}

// postImage appends k's value as the committing transaction tx sees it —
// the resolved result of a combining write — or v when tx reads k absent.
func (e *walEnc[K, V, A]) postImage(tx *core.Txn[K, V, A], k K, v V) {
	if e == nil {
		return
	}
	if post, ok := tx.Get(k); ok {
		v = post
	}
	e.appendInsert(k, v)
}

// inserts encodes a batch insert committed by tx: with a comb each entry's
// post-image, without one the entries as given (already absolute).
func (e *walEnc[K, V, A]) inserts(tx *core.Txn[K, V, A], entries []ftree.Entry[K, V], comb func(old, new V) V) {
	if e == nil {
		return
	}
	for _, en := range entries {
		if comb != nil {
			e.postImage(tx, en.Key, en.Val)
		} else {
			e.appendInsert(en.Key, en.Val)
		}
	}
}

// intents appends one op per buffered intent, in replay order, resolving
// combining intents to their post-image via the committing transaction (tx
// reads through the fully applied list, so a comb buried under later
// writes encodes the final value — overwritten at replay by the later ops'
// own encodes, exactly as in memory).
func (e *walEnc[K, V, A]) intents(tx *core.Txn[K, V, A], list []intent[K, V]) {
	if e == nil {
		return
	}
	for _, in := range list {
		switch {
		case in.del:
			e.appendDelete(in.key)
		case in.comb != nil:
			e.postImage(tx, in.key, in.val)
		default:
			e.appendInsert(in.key, in.val)
		}
	}
}

// batch encodes one combiner batch committed on shard s.  With a comb the
// post-images are read back from the just-committed version (one pinned
// read; the pipeline holds s's walMu, so no other logged writer can
// advance the shard first); without one the gathered entries are already
// absolute.  Inserts are encoded before deletes to match the commit's
// apply order.
func (e *walEnc[K, V, A]) batch(s *core.Map[K, V, A], inserts []ftree.Entry[K, V], deletes []K, hasComb bool) {
	if e == nil {
		return
	}
	if hasComb && len(inserts) > 0 {
		s.WithCached(func(h *core.Handle[K, V, A]) {
			h.Read(func(sn core.Snapshot[K, V, A]) {
				for _, en := range inserts {
					if v, ok := sn.Get(en.Key); ok {
						e.appendInsert(en.Key, v)
					} else {
						e.appendDelete(en.Key)
					}
				}
			})
		})
	} else {
		for _, en := range inserts {
			e.appendInsert(en.Key, en.Val)
		}
	}
	e.appendDeletes(deletes)
}

// decodeWALOps walks one record (or snapshot) payload, calling ins/del per
// op in stream order.
func decodeWALOps[K, V any](cfg *WALConfig[K, V], p []byte, ins func(K, V), del func(K)) error {
	field := func() ([]byte, error) {
		n, w := binary.Uvarint(p)
		if w <= 0 || uint64(w)+n > uint64(len(p)) {
			return nil, errors.New("shard: wal payload truncated")
		}
		b := p[w : w+int(n)]
		p = p[w+int(n):]
		return b, nil
	}
	for len(p) > 0 {
		tag := p[0]
		p = p[1:]
		kb, err := field()
		if err != nil {
			return err
		}
		k, err := cfg.DecKey(kb)
		if err != nil {
			return fmt.Errorf("shard: wal key decode: %w", err)
		}
		switch tag {
		case walOpInsert:
			vb, err := field()
			if err != nil {
				return err
			}
			v, err := cfg.DecVal(vb)
			if err != nil {
				return fmt.Errorf("shard: wal value decode: %w", err)
			}
			ins(k, v)
		case walOpDelete:
			del(k)
		default:
			return fmt.Errorf("shard: wal payload has unknown op tag %d", tag)
		}
	}
	return nil
}

// DecodeWALSnapshot parses a checkpoint snapshot payload back into entries;
// callers pass the result to New as the recovered map's initial contents.
func DecodeWALSnapshot[K, V any](cfg WALConfig[K, V], payload []byte) ([]ftree.Entry[K, V], error) {
	var out []ftree.Entry[K, V]
	err := decodeWALOps(&cfg, payload,
		func(k K, v V) { out = append(out, ftree.Entry[K, V]{Key: k, Val: v}) },
		func(K) {})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AttachWAL binds an open redo log to the map as the commit pipeline's
// sink: from here on every write logs a redo record and acks only after
// the log's fsync policy says the record is durable.  Call it after New (and
// after RecoverWAL when reopening), before any writes and before
// StartBatching; it is not concurrency-safe against writes.
func (m *Map[K, V, A]) AttachWAL(cfg WALConfig[K, V]) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if m.wal != nil {
		return errors.New("shard: WAL already attached")
	}
	if m.batchers != nil {
		return errors.New("shard: AttachWAL must precede StartBatching")
	}
	m.wal = &walBinding[K, V, A]{log: cfg.Log, cfg: cfg}
	return nil
}

// WALStats exposes the attached log's counters (nil-safe: zero when no WAL).
func (m *Map[K, V, A]) WALStats() wal.Stats {
	if m.wal == nil {
		return wal.Stats{}
	}
	return m.wal.log.Stat()
}

// RecoverWAL replays recovered redo records into the map, in GSN order,
// then advances the map's commit-sequence source past everything replayed
// so post-recovery stamps never collide with logged ones.  Call it on a
// fresh map (seeded with the decoded snapshot) before AttachWAL; it is not
// concurrency-safe.
func (m *Map[K, V, A]) RecoverWAL(cfg WALConfig[K, V], rec *wal.Recovered) error {
	for _, r := range rec.Records {
		err := decodeWALOps(&cfg, r.Payload,
			func(k K, v V) {
				m.shards[m.ShardFor(k)].WithCached(func(h *core.Handle[K, V, A]) {
					h.Update(func(tx *core.Txn[K, V, A]) { tx.Insert(k, v) })
				})
			},
			func(k K) {
				m.shards[m.ShardFor(k)].WithCached(func(h *core.Handle[K, V, A]) {
					h.Update(func(tx *core.Txn[K, V, A]) { tx.Delete(k) })
				})
			})
		if err != nil {
			return fmt.Errorf("shard: replaying record gsn=%d: %w", r.GSN, err)
		}
	}
	// Never rewind: the replay itself stamped from 0, and a snapshot-only
	// recovery (no records) must still clear the checkpoint cut.
	m.FloorGSN(max(rec.MaxGSN, rec.SnapshotCut))
	return nil
}

// Checkpoint writes a consistent snapshot of the whole map to the log and
// retires every sealed segment the snapshot covers.  The cut rides
// ViewConsistent: shard i's pinned root contains all commits stamped <=
// GSNs()[i], so min(GSNs) is a sound cut — records above it are replayed
// over the snapshot at recovery, and absolute post-images make re-applying
// the overlap idempotent.  Concurrent calls are serialized; writers are
// never blocked (the snapshot is a pinned immutable read).
func (m *Map[K, V, A]) Checkpoint() error {
	if m.wal == nil {
		return errors.New("shard: no WAL attached")
	}
	if !m.enter(0) {
		return ErrClosed
	}
	defer m.exit(0)
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	w := m.wal
	// Deliberately NOT the pooled encoder: a checkpoint serializes the
	// whole map, and returning that buffer to the sync.Pool would park
	// database-sized capacity there indefinitely and hand it to point
	// writes.  Checkpoints are rare; a throwaway allocation is fine.
	e := &walEnc[K, V, A]{cfg: &w.cfg}
	var cut uint64
	m.viewConsistent(func(s Snap[K, V, A]) {
		gsns := s.GSNs()
		cut = gsns[0]
		for _, g := range gsns[1:] {
			if g < cut {
				cut = g
			}
		}
		for i := range m.shards {
			s.Shard(i).ForEach(func(k K, v V) { e.appendInsert(k, v) })
		}
	})
	return w.log.Checkpoint(cut, e.buf)
}

// closeWAL closes the attached log, if any, flushing and syncing its tail.
func (m *Map[K, V, A]) closeWAL() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.log.Close()
}

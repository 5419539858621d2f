// The commit pipeline: the one place a sharded write meets the log.
//
// Every write path — point Insert/InsertWith/Delete, InsertBatch and
// DeleteBatch, per-shard Update, UpdateAtomic, each UpdateAtomicKeys
// attempt and the combiner's persist hook — is a thin front end that hands
// commit the shards it touches and a step.  The step runs the in-memory
// commit(s), encodes their post-images into the encoder it is given (a nil
// encoder, the in-memory case, encodes nothing) and returns the GSN the
// record is logged under (0 when nothing was published).  commit owns,
// once for all of them:
//
//   - fail-fast: a poisoned log refuses the write before memory is touched;
//   - the lock order, map-wide: walMu (ascending shard order) -> writer
//     slots (ascending, fenced writes only) -> stripe install locks (taken
//     by the step itself, UpdateAtomicKeys only).  Holding walMu across
//     {in-memory commit + Append} makes each shard's log order equal its
//     commit order;
//   - Append under the step's GSN, one record per step;
//   - release of every lock by defer — so a panicking user comb wedges
//     nothing — before the group Commit (the fsync wait), so one shard's
//     durability wait never blocks the next writer on that shard.
//
// The log is an optional sink: with none attached (m.wal == nil) commit
// only takes the writer slots a fenced write needs and runs the step.
package shard

import (
	"sync/atomic"

	"mvgc/internal/batch"
	"mvgc/internal/core"
	"mvgc/internal/ftree"
)

// commitGroup lets the independent per-shard commits of one call (Update,
// InsertBatch, DeleteBatch) share one group Commit: a grouped commit marks
// the group instead of syncing, and the caller ends the group with
// syncGroup once every member has returned.
type commitGroup struct{ appended atomic.Bool }

// commit runs one write through the pipeline (see the file comment):
// shards lists the shards the step commits on, ascending; fence takes
// their writer slots around the step; grp, when non-nil, defers the group
// Commit to syncGroup.
func (m *Map[K, V, A]) commit(grp *commitGroup, shards []int, fence bool, step func(e *walEnc[K, V, A]) uint64) error {
	w := m.wal
	var e *walEnc[K, V, A]
	if w != nil {
		if err := w.log.Err(); err != nil {
			return err
		}
		e = w.getEnc()
		defer w.putEnc(e)
	}
	appended, err := func() (bool, error) {
		if e != nil {
			for _, i := range shards {
				m.walMu[i].Lock()
			}
			defer func() {
				for j := len(shards) - 1; j >= 0; j-- {
					m.walMu[shards[j]].Unlock()
				}
			}()
		}
		g := func() uint64 {
			if fence {
				core.LockWriterSlots(m.shards, shards)
				defer core.UnlockWriterSlots(m.shards, shards)
			}
			return step(e)
		}()
		if e == nil || g == 0 {
			return false, nil
		}
		return true, w.log.Append(g, e.buf)
	}()
	if err != nil || !appended {
		return err
	}
	if grp != nil {
		grp.appended.Store(true)
		return nil
	}
	return w.log.Commit()
}

// syncGroup ends a commit group: one Commit covers every record its
// members appended.
func (m *Map[K, V, A]) syncGroup(grp *commitGroup) error {
	if !grp.appended.Load() {
		return nil
	}
	return m.wal.log.Commit()
}

// commitShard runs apply as one write transaction on shard i through a
// cached handle.  apply runs inside the committing transaction — so a
// combining write encodes its own post-image — and may run more than once
// (conflict retries re-run it; the encoder rewinds to the leg's start).
func (m *Map[K, V, A]) commitShard(grp *commitGroup, i int, fence bool, apply func(tx *core.Txn[K, V, A], e *walEnc[K, V, A])) error {
	return m.commit(grp, []int{i}, fence, func(e *walEnc[K, V, A]) uint64 {
		var g uint64
		m.shards[i].WithCached(func(h *core.Handle[K, V, A]) {
			h.Update(func(tx *core.Txn[K, V, A]) {
				e.leg(0)
				apply(tx, e)
			})
			g = h.LastStamp()
		})
		return g
	})
}

// persistHook is shard i's combiner hook: each gathered batch commits
// through the pipeline, with the batch's post-images read back from the
// just-committed version when the combiner has a comb.
func (m *Map[K, V, A]) persistHook(i int, hasComb bool) batch.Persist[K, V] {
	return func(inserts []ftree.Entry[K, V], deletes []K, apply func() uint64) error {
		return m.commit(nil, []int{i}, false, func(e *walEnc[K, V, A]) uint64 {
			g := apply()
			if g != 0 {
				e.batch(m.shards[i], inserts, deletes, hasComb)
			}
			return g
		})
	}
}

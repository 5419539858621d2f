package invindex

// The cross-shard protocol of Index: it runs only for an operation whose
// terms span shards, so at S = 1 every operation takes the single-shard
// path.
//
// # Semantics
//
// Terms that hash to the same shard keep the paper's full guarantees — an
// AndQuery whose two terms share a shard runs against one consistent
// snapshot.  Ingestion is atomic per document (and per AddDocuments batch):
// when a document's terms span shards, the affected shards' roots are
// installed under one global commit sequence number behind per-shard
// install seqlocks, the same two-phase protocol internal/shard uses for
// UpdateAtomic.  Cross-shard queries double-collect the involved shards'
// install seqlocks around pinning their posting snapshots (bounded retry,
// then a brief writer-slot fence), so a query never observes a document
// under one of its terms but not another.  The only remaining per-shard
// weakening is statistical: Terms sums per-shard counts pinned at slightly
// different instants.

import (
	"runtime"
	"sort"
	"sync"

	"mvgc/internal/core"
)

// touchedShards returns the ascending indices of shards with a non-empty
// part.
func touchedShards[T any](parts [][]T) []int {
	var out []int
	for i, p := range parts {
		if len(p) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// parallelIngestFloor is the per-shard batch size below which an atomic
// cross-shard ingest commits its shards sequentially: a single document's
// handful of entries is cheaper to commit inline than to spawn goroutines
// for, and a shorter install window means fewer stablePins retries.  Large
// AddDocuments batches keep the S-way parallel commit that is the point of
// sharding.
const parallelIngestFloor = 64

// installAtomic runs commit(i) for every touched shard under the two-phase
// global-stamp protocol (core.InstallAtomic): writer slots in ascending
// shard order, install seqlocks odd, all commits unstamped, then one
// shared GSN published everywhere before the seqlocks return to even.
// Consistent readers (stablePins) can therefore never observe a subset of
// the commits.  parallel selects S-way commits (independent shards) versus
// a cheaper inline loop.
func (ix *Index) installAtomic(touched []int, parallel bool, commit func(i int)) {
	core.LockWriterSlots(ix.maps, touched)
	defer core.UnlockWriterSlots(ix.maps, touched)
	core.InstallAtomic(ix.maps, touched, func() {
		if !parallel {
			for _, i := range touched {
				commit(i)
			}
			return
		}
		var wg sync.WaitGroup
		for _, i := range touched {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				commit(i)
			}(i)
		}
		wg.Wait()
	})
}

// stablePins runs pin — which reads the involved shards and retains shared
// postings — under a double-collect of those shards' install seqlocks: if
// an atomic ingest overlapped the pins, undo releases whatever pin retained
// and the pair runs again, so queries never observe a torn document.
// Bounded retries, then a brief fence on the involved shards' writer slots
// (which atomic ingests hold for their whole install) makes the last
// attempt definitive.  involved must be ascending (slot lock order).  Only
// seqlocks are collected, not stamps: plain single-shard ingests are atomic
// on their own, so a moving stamp alone cannot tear a document.
func (ix *Index) stablePins(involved []int, pin func(), undo func()) {
	const maxTries = 8
	seqs := make([]uint64, len(involved))
	for try := 0; try < maxTries; try++ {
		ok := true
		for j, s := range involved {
			q := ix.maps[s].InstallSeq()
			if q&1 != 0 {
				ok = false
				break
			}
			seqs[j] = q
		}
		if !ok {
			runtime.Gosched()
			continue
		}
		pin()
		stable := true
		for j, s := range involved {
			if ix.maps[s].InstallSeq() != seqs[j] {
				stable = false
				break
			}
		}
		if stable {
			return
		}
		undo()
		runtime.Gosched()
	}
	for _, s := range involved {
		ix.maps[s].LockWriterSlot()
	}
	pin()
	for j := len(involved) - 1; j >= 0; j-- {
		ix.maps[involved[j]].UnlockWriterSlot()
	}
}

// sharePostings pins each term's posting list under a stable-pin pass over
// the involved shards (no torn documents; see stablePins), reading every
// involved shard exactly once and returning owned (shared) postings the
// caller must Release.  ok is false — and nothing is retained — when any
// term is absent.
func (ix *Index) sharePostings(terms []uint64) (postings []*Posting, ok bool) {
	postings = make([]*Posting, len(terms))
	byShard := make(map[int][]int, len(ix.maps))
	for i, t := range terms {
		s := ix.shardFor(t)
		byShard[s] = append(byShard[s], i)
	}
	involved := make([]int, 0, len(byShard))
	for s := range byShard {
		involved = append(involved, s)
	}
	sort.Ints(involved)
	undo := func() {
		for i, p := range postings {
			if p != nil {
				ix.inner.Release(p)
				postings[i] = nil
			}
		}
	}
	ix.stablePins(involved, func() {
		ok = true
		for _, s := range involved {
			if !ok {
				break
			}
			idxs := byShard[s]
			ix.read(s, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
				for _, i := range idxs {
					p, found := sn.Get(terms[i])
					if !found {
						ok = false
						return
					}
					postings[i] = ix.inner.Share(p)
				}
			})
		}
	}, undo)
	if !ok {
		undo()
		return nil, false
	}
	return postings, true
}

// sharePair pins two terms living on different shards into *p1/*p2 (nil
// for absent terms) under one stable-pin pass, so the pair reflects a cut
// no atomic ingest tears.
func (ix *Index) sharePair(term1, term2 uint64, p1, p2 **Posting) {
	s1, s2 := ix.shardFor(term1), ix.shardFor(term2)
	involved := []int{s1, s2}
	if s2 < s1 {
		involved[0], involved[1] = s2, s1
	}
	ix.stablePins(involved, func() {
		ix.read(s1, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
			if p, ok := sn.Get(term1); ok {
				*p1 = ix.inner.Share(p)
			}
		})
		ix.read(s2, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
			if p, ok := sn.Get(term2); ok {
				*p2 = ix.inner.Share(p)
			}
		})
	}, func() {
		if *p1 != nil {
			ix.inner.Release(*p1)
			*p1 = nil
		}
		if *p2 != nil {
			ix.inner.Release(*p2)
			*p2 = nil
		}
	})
}

// Package invindex implements the paper's weighted inverted index
// application (Section 7.2, Table 3): an outer functional tree maps each
// term to a posting list — itself an inner functional tree from document to
// weight, augmented with the maximum weight in the subtree — and both
// levels are persistent, so adding a document is one atomic write
// transaction (built with a parallel union) and "and"-queries intersect two
// posting-list snapshots without any synchronization.
//
// Index hash-partitions the outer term tree across S independent maps for
// parallel ingestion (sharded.go holds the cross-shard protocol); S = 1 is
// the paper's single index.  No pid appears anywhere in this package's API:
// the index leases process identities internally from each map's pool
// through the cached-handle fast path (core.Map.WithCached), so ingestion
// and queries may be issued from any goroutine.
//
// The corpus is synthetic (Zipf-distributed vocabulary), substituting for
// the paper's Wikipedia dump; see DESIGN.md for why the substitution
// preserves the experiment's claim.
package invindex

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/ycsb"
)

// Posting is an inner tree node: document → weight, max-weight augmented.
type Posting = ftree.Node[uint64, int64, int64]

// Index is the two-level persistent inverted index wrapped in the paper's
// transactional system, with the term tree hash-partitioned across S
// core.Map instances the way internal/shard does for the KV map: each
// shard has its own Version Maintenance object and pid space, so S
// ingesting writers commit in parallel instead of one.  All shards share
// one inner (posting) allocator — posting trees are reference-counted, so
// a posting pinned by one shard's snapshot stays live while another shard
// commits.
type Index struct {
	inner  *ftree.Ops[uint64, int64, int64]
	outers []*ftree.Ops[uint64, *Posting, struct{}]
	maps   []*core.Map[uint64, *Posting, struct{}]
	gsn    atomic.Uint64 // shared commit-stamp source across shards
}

// TermWeight is one term occurrence in a document.
type TermWeight struct {
	Term   uint64
	Weight int64
}

// Doc is a document to ingest.
type Doc struct {
	ID    uint64
	Terms []TermWeight
}

// New creates an empty index over S = shards shards (1 is the paper's
// single index), each admitting up to procs concurrent transactions (procs
// <= 0 defaults to GOMAXPROCS+1, leaving room for one ingesting writer
// next to GOMAXPROCS queriers), with the given parallel grain for batch
// updates.
func New(shards, procs, grain int) (*Index, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("invindex: shards must be positive, got %d", shards)
	}
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0) + 1
	}
	inner := ftree.New[uint64, int64, int64](ftree.IntCmp[uint64], ftree.MaxAug[uint64](), grain)
	ix := &Index{inner: inner}
	for i := 0; i < shards; i++ {
		outer := newOuter(inner, grain)
		m, err := core.NewMap(core.Config{Algorithm: "pswf", Procs: procs, Stamp: &ix.gsn}, outer, nil)
		if err != nil {
			for _, prev := range ix.maps {
				prev.Close()
			}
			return nil, fmt.Errorf("invindex: shard %d: %w", i, err)
		}
		ix.outers = append(ix.outers, outer)
		ix.maps = append(ix.maps, m)
	}
	return ix, nil
}

// newOuter builds a term → posting tree whose values share the inner
// allocator: retaining an outer node retains its posting list.
func newOuter(inner *ftree.Ops[uint64, int64, int64], grain int) *ftree.Ops[uint64, *Posting, struct{}] {
	outer := ftree.New[uint64, *Posting, struct{}](ftree.IntCmp[uint64], ftree.NoAug[uint64, *Posting](), grain)
	outer.RetainVal = func(p *Posting) *Posting {
		if p == nil {
			return nil
		}
		return inner.Share(p)
	}
	outer.ReleaseVal = func(p *Posting) { inner.Release(p) }
	return outer
}

// shardFor routes a term to its shard; Mix64 spreads sequential term ids
// uniformly.
func (ix *Index) shardFor(term uint64) int {
	return int(ycsb.Mix64(term) % uint64(len(ix.maps)))
}

// read runs a read-only transaction on shard i's cached handle.
func (ix *Index) read(i int, f func(s core.Snapshot[uint64, *Posting, struct{}])) {
	ix.maps[i].WithCached(func(h *core.Handle[uint64, *Posting, struct{}]) { h.Read(f) })
}

// update runs a write transaction on shard i's cached handle.
func (ix *Index) update(i int, f func(tx *core.Txn[uint64, *Posting, struct{}])) {
	ix.maps[i].WithCached(func(h *core.Handle[uint64, *Posting, struct{}]) { h.Update(f) })
}

// combinePostings merges two owned posting trees into one owned tree,
// summing weights for documents present in both.
func combinePostings(inner *ftree.Ops[uint64, int64, int64]) func(a, b *Posting) *Posting {
	return func(a, b *Posting) *Posting {
		u := inner.Union(a, b, func(x, y int64) int64 { return x + y })
		inner.Release(a)
		inner.Release(b)
		return u
	}
}

// docBatch turns documents into term → single-entry-posting deltas.
func docBatch(inner *ftree.Ops[uint64, int64, int64], docs []Doc) []ftree.Entry[uint64, *Posting] {
	var batch []ftree.Entry[uint64, *Posting]
	for _, d := range docs {
		for _, tw := range d.Terms {
			batch = append(batch, ftree.Entry[uint64, *Posting]{
				Key: tw.Term,
				Val: inner.Insert(nil, d.ID, tw.Weight),
			})
		}
	}
	return batch
}

// AddDocument ingests one document atomically, even when its terms span
// shards: no query ever observes the document under some of its terms and
// not others (the paper's atomic-ingestion requirement).
func (ix *Index) AddDocument(d Doc) {
	ix.AddDocuments([]Doc{d})
}

// AddDocuments ingests a batch of documents in one atomic transaction.  A
// batch whose terms all live on one shard is one write transaction on that
// shard; otherwise the per-shard parts commit under the cross-shard
// install protocol (installAtomic) and become visible to consistent
// queries together, under one global commit sequence number.
func (ix *Index) AddDocuments(docs []Doc) {
	parts := make([][]ftree.Entry[uint64, *Posting], len(ix.maps))
	for _, e := range docBatch(ix.inner, docs) {
		i := ix.shardFor(e.Key)
		parts[i] = append(parts[i], e)
	}
	touched := touchedShards(parts)
	if len(touched) == 1 {
		// One shard's commit is atomic on its own and stamps itself.
		insertDocBatch(ix.inner, ix.maps[touched[0]], parts[touched[0]], true)
		return
	}
	parallel := false
	for _, i := range touched {
		if len(parts[i]) >= parallelIngestFloor {
			parallel = true
			break
		}
	}
	ix.installAtomic(touched, parallel, func(i int) {
		insertDocBatch(ix.inner, ix.maps[i], parts[i], false)
	})
}

// insertDocBatch commits term → posting deltas into m.  Write transactions
// retry on conflict, so each attempt must be self-contained: it inserts
// fresh shares of the deltas, letting a conflict-aborted attempt release
// its partial tree without consuming the originals (which are released
// exactly once, after the commit).  This makes concurrent AddDocuments
// callers safe — the pid-free API no longer implies a single writer.
// stamped=false is for the cross-shard atomic ingest, where the caller
// publishes one shared commit stamp after all shards install.
func insertDocBatch(inner *ftree.Ops[uint64, int64, int64], m *core.Map[uint64, *Posting, struct{}], batch []ftree.Entry[uint64, *Posting], stamped bool) {
	comb := combinePostings(inner)
	m.WithCached(func(h *core.Handle[uint64, *Posting, struct{}]) {
		commit := h.Update
		if !stamped {
			commit = h.UpdateUnstamped
		}
		commit(func(tx *core.Txn[uint64, *Posting, struct{}]) {
			attempt := make([]ftree.Entry[uint64, *Posting], len(batch))
			for i, e := range batch {
				attempt[i] = ftree.Entry[uint64, *Posting]{Key: e.Key, Val: inner.Share(e.Val)}
			}
			tx.InsertBatch(attempt, comb)
		})
	})
	for _, e := range batch {
		inner.Release(e.Val)
	}
}

// RemoveDocument deletes a document's postings for the given terms,
// dropping terms whose posting list becomes empty, atomically across
// shards like AddDocument.
func (ix *Index) RemoveDocument(d Doc) {
	parts := make([][]TermWeight, len(ix.maps))
	for _, tw := range d.Terms {
		i := ix.shardFor(tw.Term)
		parts[i] = append(parts[i], tw)
	}
	touched := touchedShards(parts)
	if len(touched) == 1 {
		ix.update(touched[0], func(tx *core.Txn[uint64, *Posting, struct{}]) {
			removeDocTerms(ix.inner, tx, d, parts[touched[0]])
		})
		return
	}
	// A single document's removal is small; commit inline.
	ix.installAtomic(touched, false, func(i int) {
		ix.maps[i].WithCached(func(h *core.Handle[uint64, *Posting, struct{}]) {
			h.UpdateUnstamped(func(tx *core.Txn[uint64, *Posting, struct{}]) {
				removeDocTerms(ix.inner, tx, d, parts[i])
			})
		})
	})
}

// removeDocTerms deletes d's postings for the given terms within tx.
func removeDocTerms(inner *ftree.Ops[uint64, int64, int64], tx *core.Txn[uint64, *Posting, struct{}], d Doc, terms []TermWeight) {
	for _, tw := range terms {
		p, ok := tx.Get(tw.Term)
		if !ok {
			continue
		}
		np := inner.Delete(p, d.ID)
		if inner.Size(np) == 0 {
			inner.Release(np)
			tx.Delete(tw.Term)
		} else {
			tx.Insert(tw.Term, np)
		}
	}
}

// ScoredDoc is one "and"-query result.
type ScoredDoc struct {
	Doc   uint64
	Score int64
}

// AndQuery returns the top-k documents containing both terms, ranked by
// summed weight.  When the terms share a shard — always, at S = 1 — the
// query runs against one consistent snapshot: both levels are persistent,
// so the two posting lists are snapshots of the same version and the query
// never blocks or is blocked by writers.  Otherwise it intersects two
// stably-pinned per-shard snapshots (see stablePins).
func (ix *Index) AndQuery(term1, term2 uint64, k int) []ScoredDoc {
	sum := func(a, b int64) int64 { return a + b }
	if s1 := ix.shardFor(term1); s1 == ix.shardFor(term2) {
		var out []ScoredDoc
		ix.read(s1, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
			p1, ok1 := sn.Get(term1)
			p2, ok2 := sn.Get(term2)
			if !ok1 || !ok2 {
				return
			}
			inter := ix.inner.Intersect(p1, p2, sum)
			out = TopK(inter, k)
			ix.inner.Release(inter)
		})
		return out
	}
	// Cross-shard: two direct reads (cheaper than sharePostings' grouping,
	// which earns its keep only for N-term queries), under a stable-pin
	// pass so a concurrent atomic ingest cannot show the document under
	// one term and hide it under the other.
	var p1, p2 *Posting
	ix.sharePair(term1, term2, &p1, &p2)
	if p1 == nil || p2 == nil {
		if p1 != nil {
			ix.inner.Release(p1)
		}
		if p2 != nil {
			ix.inner.Release(p2)
		}
		return nil
	}
	inter := ix.inner.Intersect(p1, p2, sum)
	out := TopK(inter, k)
	ix.inner.Release(inter)
	ix.inner.Release(p1)
	ix.inner.Release(p2)
	return out
}

// AndQueryN generalizes AndQuery to any number of terms: top-k documents
// containing every term, intersected smallest-posting-first.  Like
// AndQuery, terms that all share a shard are answered from one snapshot
// with borrowed postings; otherwise the postings are stably pinned.
func (ix *Index) AndQueryN(terms []uint64, k int) []ScoredDoc {
	if len(terms) == 0 {
		return nil
	}
	if s := ix.shardFor(terms[0]); ix.onShard(s, terms[1:]) {
		var out []ScoredDoc
		ix.read(s, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
			postings := make([]*Posting, 0, len(terms))
			for _, t := range terms {
				p, ok := sn.Get(t)
				if !ok {
					return
				}
				postings = append(postings, p)
			}
			out = intersectTopK(ix.inner, postings, k)
		})
		return out
	}
	ps, ok := ix.sharePostings(terms)
	if !ok {
		return nil
	}
	out := intersectTopK(ix.inner, ps, k)
	for _, p := range ps {
		ix.inner.Release(p)
	}
	return out
}

// onShard reports whether every term routes to shard s.
func (ix *Index) onShard(s int, terms []uint64) bool {
	for _, t := range terms {
		if ix.shardFor(t) != s {
			return false
		}
	}
	return true
}

// intersectTopK intersects borrowed postings smallest-first and returns the
// top-k of the result; the input postings are not consumed.
func intersectTopK(inner *ftree.Ops[uint64, int64, int64], postings []*Posting, k int) []ScoredDoc {
	sum := func(a, b int64) int64 { return a + b }
	sort.Slice(postings, func(i, j int) bool {
		return inner.Size(postings[i]) < inner.Size(postings[j])
	})
	acc := inner.Share(postings[0])
	for _, p := range postings[1:] {
		next := inner.Intersect(acc, p, sum)
		inner.Release(acc)
		acc = next
	}
	out := TopK(acc, k)
	inner.Release(acc)
	return out
}

// OrQuery returns the top-k documents containing either term, ranked by
// summed weight (documents with both terms score the sum of both).  Like
// AndQuery, same-shard term pairs are answered from one consistent
// snapshot; cross-shard pairs are stably pinned, so a document carrying
// both terms always scores both or neither (never a torn single weight).
func (ix *Index) OrQuery(term1, term2 uint64, k int) []ScoredDoc {
	var p1, p2 *Posting
	if s1 := ix.shardFor(term1); s1 == ix.shardFor(term2) {
		ix.read(s1, func(sn core.Snapshot[uint64, *Posting, struct{}]) {
			if p, ok := sn.Get(term1); ok {
				p1 = ix.inner.Share(p)
			}
			if p, ok := sn.Get(term2); ok {
				p2 = ix.inner.Share(p)
			}
		})
	} else {
		ix.sharePair(term1, term2, &p1, &p2)
	}
	switch {
	case p1 == nil && p2 == nil:
		return nil
	case p1 == nil:
		out := TopK(p2, k)
		ix.inner.Release(p2)
		return out
	case p2 == nil:
		out := TopK(p1, k)
		ix.inner.Release(p1)
		return out
	}
	u := ix.inner.Union(p1, p2, func(a, b int64) int64 { return a + b })
	out := TopK(u, k)
	ix.inner.Release(u)
	ix.inner.Release(p1)
	ix.inner.Release(p2)
	return out
}

// PostingLen returns the posting-list length of term.
func (ix *Index) PostingLen(term uint64) int64 {
	var n int64
	ix.read(ix.shardFor(term), func(sn core.Snapshot[uint64, *Posting, struct{}]) {
		if p, ok := sn.Get(term); ok {
			n = ix.inner.Size(p)
		}
	})
	return n
}

// Terms returns the vocabulary size, summed over per-shard snapshots
// (approximate under concurrent ingestion when S > 1, like
// shard.Map.Len).
func (ix *Index) Terms() int64 {
	var n int64
	for i := range ix.maps {
		ix.read(i, func(sn core.Snapshot[uint64, *Posting, struct{}]) { n += sn.Len() })
	}
	return n
}

// Close shuts every shard's transactional map down.
func (ix *Index) Close() {
	for _, m := range ix.maps {
		m.Close()
	}
}

// LiveNodes reports live (outer, inner) node counts for leak checks; the
// outer count sums all shards.
func (ix *Index) LiveNodes() (outer, inner int64) {
	for _, o := range ix.outers {
		outer += o.Live()
	}
	return outer, ix.inner.Live()
}

// TopK extracts the k highest-weight entries of a max-augmented posting
// tree in O(k log n) using the augmentation as a priority bound: a heap
// holds subtrees keyed by their max-weight augmentation and single entries
// keyed by their weight; popping a subtree re-inserts its root entry and
// children.  This is the augmented top-k search the paper's index design
// enables.  Results are ordered by (score desc, doc asc).
func TopK(t *Posting, k int) []ScoredDoc {
	if t == nil || k <= 0 {
		return nil
	}
	h := &topkHeap{}
	heap.Push(h, topkItem{sub: t, pri: t.Aug()})
	var out []ScoredDoc
	for h.Len() > 0 && len(out) < k {
		it := heap.Pop(h).(topkItem)
		if it.sub == nil {
			out = append(out, ScoredDoc{Doc: it.doc, Score: it.pri})
			continue
		}
		n := it.sub
		heap.Push(h, topkItem{doc: n.Key(), pri: n.Val()})
		if l := n.Left(); l != nil {
			heap.Push(h, topkItem{sub: l, pri: l.Aug()})
		}
		if r := n.Right(); r != nil {
			heap.Push(h, topkItem{sub: r, pri: r.Aug()})
		}
	}
	return out
}

type topkItem struct {
	sub *Posting // nil for a single-entry item
	doc uint64
	pri int64
}

type topkHeap []topkItem

func (h topkHeap) Len() int      { return len(h) }
func (h topkHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *topkHeap) Push(x any)   { *h = append(*h, x.(topkItem)) }
func (h *topkHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Less pops higher priorities first; on a tie it pops subtrees before
// single entries, so every entry of a tied score is out of its subtree
// before any is emitted, and then the smaller document.
func (h topkHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.pri != b.pri {
		return a.pri > b.pri
	}
	if (a.sub == nil) != (b.sub == nil) {
		return a.sub != nil
	}
	return a.doc < b.doc
}

// CorpusConfig shapes the synthetic corpus standing in for the paper's
// Wikipedia dump.
type CorpusConfig struct {
	// Vocab is the vocabulary size.
	Vocab uint64
	// MeanDocLen is the average number of distinct terms per document.
	MeanDocLen int
	// Seed makes generation deterministic.
	Seed uint64
}

// Corpus generates documents with Zipf-distributed term choice (natural
// language's rank-frequency law) and uniform weights.
type Corpus struct {
	cfg   CorpusConfig
	terms *ycsb.ScrambledZipfian
	rng   *ycsb.SplitMix64
	next  uint64
}

// NewCorpus creates a generator.
func NewCorpus(cfg CorpusConfig) *Corpus {
	if cfg.Vocab == 0 {
		cfg.Vocab = 100000
	}
	if cfg.MeanDocLen == 0 {
		cfg.MeanDocLen = 64
	}
	return &Corpus{
		cfg:   cfg,
		terms: ycsb.NewScrambledZipfian(cfg.Vocab),
		rng:   ycsb.NewSplitMix64(cfg.Seed ^ 0xabcdef),
	}
}

// Next produces the next document: distinct Zipf-drawn terms with weights.
func (c *Corpus) Next() Doc {
	n := c.cfg.MeanDocLen/2 + int(c.rng.Intn(uint64(c.cfg.MeanDocLen)))
	seen := make(map[uint64]struct{}, n)
	d := Doc{ID: c.next}
	c.next++
	for len(d.Terms) < n {
		t := c.terms.Next(c.rng)
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		d.Terms = append(d.Terms, TermWeight{Term: t, Weight: int64(1 + c.rng.Intn(1000))})
	}
	return d
}

// HotTerms returns frequent terms for query generation: scrambled ranks
// 0..n-1, which are the zipfian hot set.
func (c *Corpus) HotTerms(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = ycsb.FNV64(uint64(i)) % c.cfg.Vocab
	}
	return out
}

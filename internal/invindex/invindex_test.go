package invindex

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// forShards runs f as one subtest per shard count: S = 1 is the paper's
// single index, and at S = 3 the tests' terms span shards, so the
// cross-shard install and stable-pin paths run too.
func forShards(t *testing.T, f func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { f(t, shards) })
	}
}

// mustNew builds an index or fails the test.
func mustNew(t *testing.T, shards, procs, grain int) *Index {
	t.Helper()
	ix, err := New(shards, procs, grain)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// closeNoLeak closes ix and checks precise collection: no outer or inner
// node may outlive the index.
func closeNoLeak(t *testing.T, ix *Index) {
	t.Helper()
	ix.Close()
	if o, i := ix.LiveNodes(); o != 0 || i != 0 {
		t.Fatalf("leak: outer %d inner %d", o, i)
	}
}

func TestAddAndQuery(t *testing.T) {
	ix := mustNew(t, 1, 2, 0)
	ix.AddDocument(Doc{ID: 1, Terms: []TermWeight{{10, 5}, {20, 7}}})
	ix.AddDocument(Doc{ID: 2, Terms: []TermWeight{{10, 3}, {30, 1}}})
	ix.AddDocument(Doc{ID: 3, Terms: []TermWeight{{10, 9}, {20, 2}}})

	if n := ix.PostingLen(10); n != 3 {
		t.Fatalf("posting(10) length = %d", n)
	}
	res := ix.AndQuery(10, 20, 10)
	if len(res) != 2 {
		t.Fatalf("and-query returned %d docs, want 2", len(res))
	}
	// doc1: 5+7=12, doc3: 9+2=11 → doc1 first.
	if res[0].Doc != 1 || res[0].Score != 12 || res[1].Doc != 3 || res[1].Score != 11 {
		t.Fatalf("results = %+v", res)
	}
	if res := ix.AndQuery(10, 999, 10); res != nil {
		t.Fatalf("query with absent term returned %v", res)
	}
	closeNoLeak(t, ix)
}

func TestAtomicDocumentIngestion(t *testing.T) {
	// A document's terms must appear all-or-nothing: while the writer
	// ingests documents with a fixed pair of terms, no snapshot may see one
	// term's posting for a doc without the other's.  Terms 1 and 2 share a
	// shard at S = 3 as well, so the two per-term reads stay ordered;
	// TestShardedDocumentAtomicity covers a pair that spans shards.
	forShards(t, testAtomicDocumentIngestion)
}

func testAtomicDocumentIngestion(t *testing.T, shards int) {
	ix := mustNew(t, shards, 4, 0)
	const docs = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := uint64(0); d < docs; d++ {
			ix.AddDocument(Doc{ID: d, Terms: []TermWeight{{1, 1}, {2, 1}}})
		}
		close(stop)
	}()
	for p := 1; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n1 := ix.PostingLen(1)
				n2 := ix.PostingLen(2)
				// Both postings grow together; a later read can only see
				// more, and within one snapshot they'd be equal.  Across
				// two reads n2 may exceed n1 but never lag behind the n1
				// read before it.
				if n2 < n1 {
					t.Errorf("torn document: posting(1)=%d then posting(2)=%d", n1, n2)
					return
				}
			}
		}()
	}
	wg.Wait()
	closeNoLeak(t, ix)
}

func TestRemoveDocument(t *testing.T) {
	forShards(t, testRemoveDocument)
}

func testRemoveDocument(t *testing.T, shards int) {
	ix := mustNew(t, shards, 1, 0)
	d := Doc{ID: 5, Terms: []TermWeight{{10, 1}, {20, 2}}}
	ix.AddDocument(d)
	ix.AddDocument(Doc{ID: 6, Terms: []TermWeight{{10, 3}}})
	ix.RemoveDocument(d)
	if n := ix.PostingLen(10); n != 1 {
		t.Fatalf("posting(10) = %d after removal, want 1", n)
	}
	if n := ix.Terms(); n != 1 {
		t.Fatalf("vocabulary = %d after removal, want 1 (term 20 dropped)", n)
	}
	closeNoLeak(t, ix)
}

func TestTopKAgainstBruteForce(t *testing.T) {
	ix := mustNew(t, 1, 1, 0)
	rng := rand.New(rand.NewSource(33))
	type dw struct {
		d uint64
		w int64
	}
	var all []dw
	var p *Posting
	for i := 0; i < 500; i++ {
		d, w := uint64(i), rng.Int63n(100000)
		all = append(all, dw{d, w})
		np := ix.inner.Insert(p, d, w)
		ix.inner.Release(p)
		p = np
	}
	sort.Slice(all, func(i, j int) bool { return all[i].w > all[j].w })
	for _, k := range []int{1, 10, 100, 500, 1000} {
		got := TopK(p, k)
		want := k
		if want > len(all) {
			want = len(all)
		}
		if len(got) != want {
			t.Fatalf("TopK(%d) returned %d", k, len(got))
		}
		for i, s := range got {
			if s.Score != all[i].w {
				t.Fatalf("TopK(%d)[%d] score %d, want %d", k, i, s.Score, all[i].w)
			}
		}
	}
	if TopK(nil, 5) != nil {
		t.Fatal("TopK(nil) must be empty")
	}
	if TopK(p, 0) != nil {
		t.Fatal("TopK(_, 0) must be empty")
	}
	ix.inner.Release(p)
	ix.Close()
}

func TestCorpusGeneration(t *testing.T) {
	c := NewCorpus(CorpusConfig{Vocab: 1000, MeanDocLen: 32, Seed: 1})
	seen := map[uint64]int{}
	for i := 0; i < 200; i++ {
		d := c.Next()
		if d.ID != uint64(i) {
			t.Fatalf("doc id %d, want %d", d.ID, i)
		}
		if len(d.Terms) < 16 || len(d.Terms) > 48 {
			t.Fatalf("doc length %d outside [16,48]", len(d.Terms))
		}
		dup := map[uint64]bool{}
		for _, tw := range d.Terms {
			if dup[tw.Term] {
				t.Fatal("duplicate term within document")
			}
			dup[tw.Term] = true
			if tw.Weight <= 0 {
				t.Fatal("non-positive weight")
			}
			seen[tw.Term]++
		}
	}
	// Zipf skew: the hottest term should appear in a large share of docs.
	hot := 0
	for _, c := range seen {
		if c > hot {
			hot = c
		}
	}
	if hot < 50 {
		t.Fatalf("hottest term appears only %d times; corpus not skewed", hot)
	}
	ht := c.HotTerms(5)
	if len(ht) != 5 {
		t.Fatal("HotTerms length")
	}
}

// TestConcurrentQueriesDuringIngestion is a miniature of Table 3's dynamic
// setting: queries and batched updates run simultaneously, all pid-free.
func TestConcurrentQueriesDuringIngestion(t *testing.T) {
	forShards(t, testConcurrentQueriesDuringIngestion)
}

func testConcurrentQueriesDuringIngestion(t *testing.T, shards int) {
	const procs = 4
	ix := mustNew(t, shards, procs, 64)
	c := NewCorpus(CorpusConfig{Vocab: 500, MeanDocLen: 24, Seed: 2})
	hot := c.HotTerms(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for batch := 0; batch < 30; batch++ {
			docs := make([]Doc, 10)
			for i := range docs {
				docs[i] = c.Next()
			}
			ix.AddDocuments(docs)
		}
		close(stop)
	}()
	for p := 1; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				t1 := hot[rng.Intn(len(hot))]
				t2 := hot[rng.Intn(len(hot))]
				t3 := hot[rng.Intn(len(hot))]
				for _, res := range [][]ScoredDoc{ix.AndQuery(t1, t2, 10), ix.AndQueryN([]uint64{t1, t2, t3}, 10)} {
					for i := 1; i < len(res); i++ {
						if res[i].Score > res[i-1].Score {
							t.Errorf("results not ranked: %v", res)
							return
						}
					}
				}
			}
		}(p)
	}
	wg.Wait()
	closeNoLeak(t, ix)
}

func TestOrQuery(t *testing.T) {
	forShards(t, testOrQuery)
}

func testOrQuery(t *testing.T, shards int) {
	ix := mustNew(t, shards, 1, 0)
	ix.AddDocument(Doc{ID: 1, Terms: []TermWeight{{10, 5}}})
	ix.AddDocument(Doc{ID: 2, Terms: []TermWeight{{20, 7}}})
	ix.AddDocument(Doc{ID: 3, Terms: []TermWeight{{10, 2}, {20, 2}}})
	res := ix.OrQuery(10, 20, 10)
	if len(res) != 3 {
		t.Fatalf("or-query returned %d docs, want 3", len(res))
	}
	// doc2: 7, doc1: 5, doc3: 4.
	if res[0].Doc != 2 || res[1].Doc != 1 || res[2].Doc != 3 || res[2].Score != 4 {
		t.Fatalf("results = %+v", res)
	}
	// One side absent degrades to the other posting.
	if res := ix.OrQuery(10, 999, 10); len(res) != 2 {
		t.Fatalf("or with absent term = %+v", res)
	}
	if res := ix.OrQuery(998, 999, 10); res != nil {
		t.Fatalf("or with both absent = %+v", res)
	}
	closeNoLeak(t, ix)
}

func TestAndQueryN(t *testing.T) {
	forShards(t, testAndQueryN)
}

func testAndQueryN(t *testing.T, shards int) {
	ix := mustNew(t, shards, 1, 0)
	ix.AddDocument(Doc{ID: 1, Terms: []TermWeight{{1, 1}, {2, 1}, {3, 1}}})
	ix.AddDocument(Doc{ID: 2, Terms: []TermWeight{{1, 9}, {2, 9}}})
	ix.AddDocument(Doc{ID: 3, Terms: []TermWeight{{1, 4}, {2, 4}, {3, 4}}})
	res := ix.AndQueryN([]uint64{1, 2, 3}, 10)
	if len(res) != 2 {
		t.Fatalf("3-term and returned %d docs, want 2", len(res))
	}
	if res[0].Doc != 3 || res[0].Score != 12 || res[1].Doc != 1 || res[1].Score != 3 {
		t.Fatalf("results = %+v", res)
	}
	// Consistency with the 2-term query.
	a2 := ix.AndQuery(1, 2, 10)
	n2 := ix.AndQueryN([]uint64{1, 2}, 10)
	if len(a2) != len(n2) {
		t.Fatalf("AndQuery and AndQueryN disagree: %v vs %v", a2, n2)
	}
	for i := range a2 {
		if a2[i] != n2[i] {
			t.Fatalf("AndQuery and AndQueryN disagree at %d: %v vs %v", i, a2[i], n2[i])
		}
	}
	if res := ix.AndQueryN(nil, 10); res != nil {
		t.Fatal("empty term list must return nothing")
	}
	if res := ix.AndQueryN([]uint64{1, 99}, 10); res != nil {
		t.Fatal("absent term must empty the intersection")
	}
	closeNoLeak(t, ix)
}

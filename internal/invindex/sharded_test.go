package invindex

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestShardedAddAndQuery(t *testing.T) {
	ix := mustNew(t, 4, 2, 0)
	ix.AddDocument(Doc{ID: 1, Terms: []TermWeight{{10, 5}, {20, 7}}})
	ix.AddDocument(Doc{ID: 2, Terms: []TermWeight{{10, 3}, {30, 1}}})
	ix.AddDocument(Doc{ID: 3, Terms: []TermWeight{{10, 9}, {20, 2}}})

	if n := ix.PostingLen(10); n != 3 {
		t.Fatalf("posting(10) length = %d", n)
	}
	if n := ix.Terms(); n != 3 {
		t.Fatalf("vocabulary = %d, want 3", n)
	}
	res := ix.AndQuery(10, 20, 10)
	if len(res) != 2 || res[0].Doc != 1 || res[0].Score != 12 || res[1].Doc != 3 || res[1].Score != 11 {
		t.Fatalf("results = %+v", res)
	}
	if res := ix.AndQuery(10, 999, 10); res != nil {
		t.Fatalf("query with absent term returned %v", res)
	}
	closeNoLeak(t, ix)
}

// model is a brute-force inverted index built straight from the documents:
// term → doc → summed weight.  It shares no code with Index.
type model map[uint64]map[uint64]int64

func newModel(docs []Doc) model {
	m := model{}
	for _, d := range docs {
		for _, tw := range d.Terms {
			if m[tw.Term] == nil {
				m[tw.Term] = map[uint64]int64{}
			}
			m[tw.Term][d.ID] += tw.Weight
		}
	}
	return m
}

// query scores every document carrying all of terms (all) or any of them,
// summing each listed term's weight (a repeated term counts twice, as in
// the index), and returns the top k by (score desc, doc asc).
func (m model) query(terms []uint64, all bool, k int) []ScoredDoc {
	score, hits := map[uint64]int64{}, map[uint64]int{}
	for _, t := range terms {
		for d, w := range m[t] {
			score[d] += w
			hits[d]++
		}
	}
	var out []ScoredDoc
	for d, sc := range score {
		if !all || hits[d] == len(terms) {
			out = append(out, ScoredDoc{Doc: d, Score: sc})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// checkAgainstModel compares every query form of ix with the brute-force
// model at quiescence, on random picks from hot plus one absent term.
func checkAgainstModel(t *testing.T, name string, ix *Index, m model, hot []uint64, seed int64) {
	t.Helper()
	if got, want := ix.Terms(), int64(len(m)); got != want {
		t.Fatalf("%s: Terms = %d, want %d", name, got, want)
	}
	for term, ds := range m {
		if got, want := ix.PostingLen(term), int64(len(ds)); got != want {
			t.Fatalf("%s: PostingLen(%d) = %d, want %d", name, term, got, want)
		}
	}
	pool := append(append([]uint64(nil), hot...), 1<<40)
	rng := rand.New(rand.NewSource(seed))
	pick := func() uint64 { return pool[rng.Intn(len(pool))] }
	check := func(form string, terms []uint64, got, want []ScoredDoc) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s%v = %v, want %v", name, form, terms, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: %s%v[%d] = %v, want %v", name, form, terms, i, got[i], want[i])
			}
		}
	}
	for q := 0; q < 50; q++ {
		t1, t2, t3 := pick(), pick(), pick()
		pair, triple := []uint64{t1, t2}, []uint64{t1, t2, t3}
		check("AndQuery", pair, ix.AndQuery(t1, t2, 10), m.query(pair, true, 10))
		check("OrQuery", pair, ix.OrQuery(t1, t2, 5), m.query(pair, false, 5))
		check("AndQueryN", triple, ix.AndQueryN(triple, 10), m.query(triple, true, 10))
	}
}

// TestShardedMatchesUnsharded ingests one corpus into the index at shard
// counts around and above the vocabulary spread — S = 1 being the paper's
// single index — and checks every query form against a brute-force model
// at quiescence, for the batch and the per-document ingest paths.
func TestShardedMatchesUnsharded(t *testing.T) {
	c := NewCorpus(CorpusConfig{Vocab: 300, MeanDocLen: 24, Seed: 11})
	var docs []Doc
	for i := 0; i < 200; i++ {
		docs = append(docs, c.Next())
	}
	hot := c.HotTerms(12)
	m := newModel(docs)

	for _, shards := range []int{1, 3, 8} {
		ix := mustNew(t, shards, 2, 0)
		ix.AddDocuments(docs)
		checkAgainstModel(t, fmt.Sprintf("S=%d", shards), ix, m, hot, int64(shards))
		closeNoLeak(t, ix)
	}

	// Document by document: the per-document atomic cross-shard install
	// path.
	ix := mustNew(t, 3, 2, 0)
	for _, d := range docs {
		ix.AddDocument(d)
	}
	checkAgainstModel(t, "per-doc S=3", ix, m, hot, 3)
	closeNoLeak(t, ix)
}

// TestShardedConcurrent races parallel ingestion against queries on every
// shard and checks ranking invariants plus precise per-shard collection.
func TestShardedConcurrent(t *testing.T) {
	ix := mustNew(t, 3, 4, 64)
	c := NewCorpus(CorpusConfig{Vocab: 400, MeanDocLen: 24, Seed: 5})
	hot := c.HotTerms(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex // Corpus is single-threaded; two writers share it
	wg.Add(2)
	for w := 0; w < 2; w++ {
		go func() {
			defer wg.Done()
			for batch := 0; batch < 15; batch++ {
				mu.Lock()
				docs := make([]Doc, 10)
				for i := range docs {
					docs[i] = c.Next()
				}
				mu.Unlock()
				ix.AddDocuments(docs)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(stop)
	}()
	var qwg sync.WaitGroup
	for p := 0; p < 3; p++ {
		qwg.Add(1)
		go func(p int) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				t1 := hot[rng.Intn(len(hot))]
				t2 := hot[rng.Intn(len(hot))]
				res := ix.AndQuery(t1, t2, 10)
				for i := 1; i < len(res); i++ {
					if res[i].Score > res[i-1].Score {
						t.Errorf("results not ranked: %v", res)
						return
					}
				}
			}
		}(p)
	}
	qwg.Wait()
	closeNoLeak(t, ix)
}

// TestShardedDocumentAtomicity races per-document ingestion (and removal)
// of documents whose two terms live on different shards against cross-shard
// OrQuerys.  Every document carries both terms with weight 1, so any score
// other than 2 means a query observed the document under one term and not
// the other — exactly the torn state the global-stamp install protocol and
// the stable-pin read protocol exist to prevent.
func TestShardedDocumentAtomicity(t *testing.T) {
	ix := mustNew(t, 4, 4, 0)
	// Find two terms on different shards.
	tA := uint64(1)
	tB := tA + 1
	for ix.shardFor(tB) == ix.shardFor(tA) {
		tB++
	}
	const docs = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for d := uint64(1); d <= docs; d++ {
			doc := Doc{ID: d, Terms: []TermWeight{{tA, 1}, {tB, 1}}}
			ix.AddDocument(doc)
			if d%3 == 0 {
				ix.RemoveDocument(doc)
			}
		}
	}()
	var qwg sync.WaitGroup
	for p := 0; p < 2; p++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sd := range ix.OrQuery(tA, tB, docs+1) {
					if sd.Score != 2 {
						t.Errorf("torn document %d: score %d, want 2", sd.Doc, sd.Score)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	qwg.Wait()
	closeNoLeak(t, ix)
}

func TestShardedRemoveDocument(t *testing.T) {
	ix := mustNew(t, 4, 1, 0)
	d := Doc{ID: 5, Terms: []TermWeight{{10, 1}, {20, 2}, {30, 3}}}
	ix.AddDocument(d)
	ix.AddDocument(Doc{ID: 6, Terms: []TermWeight{{10, 3}}})
	ix.RemoveDocument(d)
	if n := ix.PostingLen(10); n != 1 {
		t.Fatalf("posting(10) = %d after removal, want 1", n)
	}
	if n := ix.Terms(); n != 1 {
		t.Fatalf("vocabulary = %d after removal, want 1", n)
	}
	closeNoLeak(t, ix)
}

func TestNewRejectsBadShards(t *testing.T) {
	if _, err := New(0, 1, 0); err == nil {
		t.Fatal("New(0, ...) must error")
	}
}

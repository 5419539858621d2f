package invindex

import (
	"testing"

	"mvgc/internal/ycsb"
)

// benchIndex seeds the paper's single index (S = 1) with a 2,000-document
// corpus shaped like Table 3's default, in 16-document batches, and returns
// it with the corpus (to draw more documents from) and its hot terms.
func benchIndex(b *testing.B) (*Index, *Corpus, []uint64) {
	ix, err := New(1, 3, 2048)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ix.Close)
	c := NewCorpus(CorpusConfig{Vocab: 50_000, MeanDocLen: 48, Seed: 7})
	for d := 0; d < 2000; d += 16 {
		ix.AddDocuments(benchDocs(c))
	}
	return ix, c, c.HotTerms(64)
}

func benchDocs(c *Corpus) []Doc {
	docs := make([]Doc, 16)
	for i := range docs {
		docs[i] = c.Next()
	}
	return docs
}

// BenchmarkIndex times one 16-document ingest batch and each query form
// (top-10 over random hot terms) on the seeded index.
func BenchmarkIndex(b *testing.B) {
	b.Run("ingest", func(b *testing.B) {
		ix, c, _ := benchIndex(b)
		for b.Loop() {
			b.StopTimer()
			docs := benchDocs(c)
			b.StartTimer()
			ix.AddDocuments(docs)
		}
	})
	queries := []struct {
		name string
		run  func(ix *Index, t1, t2, t3 uint64)
	}{
		{"AndQuery", func(ix *Index, t1, t2, _ uint64) { ix.AndQuery(t1, t2, 10) }},
		{"AndQueryN", func(ix *Index, t1, t2, t3 uint64) { ix.AndQueryN([]uint64{t1, t2, t3}, 10) }},
		{"OrQuery", func(ix *Index, t1, t2, _ uint64) { ix.OrQuery(t1, t2, 10) }},
	}
	for _, q := range queries {
		b.Run(q.name, func(b *testing.B) {
			ix, _, hot := benchIndex(b)
			rng := ycsb.NewSplitMix64(1)
			pick := func() uint64 { return hot[rng.Intn(uint64(len(hot)))] }
			for b.Loop() {
				q.run(ix, pick(), pick(), pick())
			}
		})
	}
}

// Command invbench regenerates Table 3: the weighted inverted index under
// simultaneous updates and "and"-queries, compared against running the same
// work separately.  The paper's claim is that Tu + Tq ≈ Tu+q, i.e.
// co-running adds almost no overhead because queries are delay-free reads
// on snapshots and the single writer's parallel unions soak up idle cores.
// The sweep runs the index at one shard (the paper's single index); a
// final row partitions it across -shards shards, whose S writers ingest
// in parallel.
//
// Usage:
//
//	invbench                          # sweep query-thread counts
//	invbench -docs 20000 -window 30s  # longer, larger corpus
//	invbench -shards 8 -json BENCH_inv.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mvgc/internal/bench"
	"mvgc/internal/experiments"
)

func main() {
	var (
		vocab    = flag.Uint64("vocab", 50_000, "vocabulary size")
		doclen   = flag.Int("doclen", 48, "mean distinct terms per document")
		docs     = flag.Int("docs", 2_000, "initial corpus size in documents")
		threads  = flag.Int("threads", runtime.GOMAXPROCS(0), "total threads (default GOMAXPROCS; paper: 144)")
		window   = flag.Duration("window", 3*time.Second, "co-running window (paper: 30s)")
		qts      = flag.String("querythreads", "", "comma-separated query-thread counts to sweep")
		shards   = bench.ShardsFlag("shard count for the sharded-index row (0 skips it)")
		jsonPath = flag.String("json", "", "also write machine-readable results (BENCH_inv.json schema) to this path")
	)
	flag.Parse()

	cfg := experiments.DefaultTable3()
	cfg.Vocab = *vocab
	cfg.MeanDocLen = *doclen
	cfg.InitialDocs = *docs
	cfg.Window = *window
	cfg.Shards = *shards
	if *threads > 0 && *threads != cfg.Threads {
		cfg.Threads = *threads
		// The default sweep was sized for GOMAXPROCS; rebuild it for the
		// requested thread count.
		cfg.QueryThreads = experiments.QueryThreadSweep(*threads)
	}
	if *qts != "" {
		cfg.QueryThreads = nil
		for _, s := range strings.Split(*qts, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "invbench: bad -querythreads value %q: %v\n", s, err)
				os.Exit(1)
			}
			cfg.QueryThreads = append(cfg.QueryThreads, v)
		}
	}
	results := experiments.RunTable3(cfg, os.Stdout)

	if *jsonPath != "" {
		report := bench.InvReport{
			Threads:     cfg.Threads,
			Vocab:       cfg.Vocab,
			InitialDocs: cfg.InitialDocs,
			WindowSec:   cfg.Window.Seconds(),
			Results:     results,
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "invbench:", err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "invbench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "invbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *jsonPath)
	}
}

// Package experiments implements the paper's evaluation (Section 7): one
// function per table or figure, shared by the cmd/ binaries and the root
// benchmark suite.  Parameters default to host-scaled values; the paper's
// exact configuration (n=1e8 keys, P=141 threads, 15 s runs on 144
// hyperthreads) is reachable through the same knobs.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvgc/internal/bench"
	"mvgc/internal/core"
	"mvgc/internal/ftree"
	"mvgc/internal/ycsb"
)

// Table2Config parameterizes the Table 2 / Figure 6 experiment: a
// single-writer multi-reader workload over an augmented functional tree,
// sweeping transaction granularity and the Version Maintenance algorithm.
type Table2Config struct {
	// N is the initial tree size (paper: 1e8).
	N int
	// Procs is the total thread count: 1 writer + Procs-1 query threads
	// (paper: 141).
	Procs int
	// Duration is the measured run time per cell (paper: 15 s).
	Duration time.Duration
	// Reps averages this many runs (paper: 3).
	Reps int
	// Algorithms to compare; nil means all of them.
	Algorithms []string
	// NQs and NUs are the query/update granularities to sweep
	// (paper: {10, 1000} × {10, 1000}).
	NQs, NUs []int
}

// DefaultTable2 returns a host-scaled configuration.
func DefaultTable2() Table2Config {
	return Table2Config{
		N:          1_000_000,
		Procs:      runtime.GOMAXPROCS(0),
		Duration:   3 * time.Second,
		Reps:       1,
		Algorithms: []string{"base", "pswf", "pslf", "hp", "epoch", "rcu", "sbgc"},
		NQs:        []int{10, 1000},
		NUs:        []int{10, 1000},
	}
}

// Table2Cell is the measurement for one (algorithm, nq, nu) setting.
type Table2Cell struct {
	Alg         string
	NQ, NU      int
	QueryMops   float64
	UpdateMops  float64
	MaxVersions int64
}

// RunTable2Cell measures one cell: one writer committing transactions of
// nu random insertions each, Procs-1 readers each running transactions of
// nq augmented range-sum queries, for the configured duration.
func RunTable2Cell(cfg Table2Config, alg string, nq, nu int) Table2Cell {
	ops := ftree.New[int64, int64, int64](ftree.IntCmp[int64], ftree.SumAug[int64](), 0)
	initial := make([]ftree.Entry[int64, int64], cfg.N)
	for i := range initial {
		initial[i] = ftree.Entry[int64, int64]{Key: int64(i) * 2, Val: int64(i)}
	}
	m, err := core.NewMap(core.Config{Algorithm: alg, Procs: cfg.Procs}, ops, initial)
	if err != nil {
		panic(err)
	}
	m.TrackVersions = true
	keyRange := int64(cfg.N) * 2

	queries := make([]bench.Counter, cfg.Procs)
	updates := make([]bench.Counter, cfg.Procs)
	var stop atomic.Bool
	var wg sync.WaitGroup
	// Writer: one long-lived leased process identity.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := m.Handle()
		defer h.Close()
		rng := ycsb.NewSplitMix64(99)
		for !stop.Load() {
			h.Update(func(tx *core.Txn[int64, int64, int64]) {
				for i := 0; i < nu; i++ {
					tx.Insert(int64(rng.Intn(uint64(keyRange))), int64(rng.Next()>>40))
				}
			})
			updates[0].Add(int64(nu))
		}
	}()
	// Readers: Procs-1 leased identities, each transaction is nq range sums.
	for p := 1; p < cfg.Procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := m.Handle()
			defer h.Close()
			rng := ycsb.NewSplitMix64(uint64(p) * 7919)
			width := keyRange / 1000
			for !stop.Load() {
				h.Read(func(s core.Snapshot[int64, int64, int64]) {
					for i := 0; i < nq; i++ {
						lo := int64(rng.Intn(uint64(keyRange)))
						_ = s.AugRange(lo, lo+width)
					}
				})
				queries[p].Add(int64(nq))
			}
		}(p)
	}
	start := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var q, u int64
	for i := range queries {
		q += queries[i].Load()
		u += updates[i].Load()
	}
	cell := Table2Cell{
		Alg:         alg,
		NQ:          nq,
		NU:          nu,
		QueryMops:   float64(q) / elapsed / 1e6,
		UpdateMops:  float64(u) / elapsed / 1e6,
		MaxVersions: m.MaxVersions(),
	}
	m.Close()
	if live := ops.Live(); live != 0 {
		panic(fmt.Sprintf("table2 %s: leaked %d nodes", alg, live))
	}
	return cell
}

// RunTable2 sweeps the full grid and renders the three sub-tables of
// Table 2 (query throughput, update throughput, max live versions).
func RunTable2(cfg Table2Config, w io.Writer) []Table2Cell {
	var cells []Table2Cell
	headers := append([]string{"nq", "nu"}, cfg.Algorithms...)
	qt := bench.NewTable("Table 2a: Query Throughput (Mop/s)", headers...)
	ut := bench.NewTable("Table 2b: Update Throughput (Mop/s)", headers...)
	vt := bench.NewTable("Table 2c: Max # Versions", headers...)
	for _, nq := range cfg.NQs {
		for _, nu := range cfg.NUs {
			qrow := []string{fmt.Sprint(nq), fmt.Sprint(nu)}
			urow := []string{fmt.Sprint(nq), fmt.Sprint(nu)}
			vrow := []string{fmt.Sprint(nq), fmt.Sprint(nu)}
			for _, alg := range cfg.Algorithms {
				var qSum, uSum float64
				var vMax int64
				for r := 0; r < max(cfg.Reps, 1); r++ {
					c := RunTable2Cell(cfg, alg, nq, nu)
					qSum += c.QueryMops
					uSum += c.UpdateMops
					if c.MaxVersions > vMax {
						vMax = c.MaxVersions
					}
					cells = append(cells, c)
				}
				reps := float64(max(cfg.Reps, 1))
				qrow = append(qrow, bench.F2(qSum/reps))
				urow = append(urow, bench.F(uSum/reps))
				if alg == "base" {
					vrow = append(vrow, "—")
				} else {
					vrow = append(vrow, fmt.Sprint(vMax))
				}
			}
			qt.AddRow(qrow...)
			ut.AddRow(urow...)
			vt.AddRow(vrow...)
		}
	}
	qt.Fprint(w)
	ut.Fprint(w)
	vt.Fprint(w)
	return cells
}

// Figure6Config parameterizes the uncollected-version sweep.
type Figure6Config struct {
	Table2Config
	// NQ is fixed (paper: 10); NUs is the x-axis sweep
	// (paper: 1 … 10000).
	NQ int
}

// DefaultFigure6 returns a host-scaled configuration.
func DefaultFigure6() Figure6Config {
	c := DefaultTable2()
	c.NUs = []int{1, 10, 100, 1000, 10000}
	c.Algorithms = []string{"pswf", "pslf", "hp", "epoch", "rcu"}
	return Figure6Config{Table2Config: c, NQ: 10}
}

// RunFigure6 sweeps update granularity at fixed nq and prints the maximum
// number of uncollected versions per algorithm — the series of Figure 6.
func RunFigure6(cfg Figure6Config, w io.Writer) {
	headers := append([]string{"nu"}, cfg.Algorithms...)
	t := bench.NewTable(fmt.Sprintf("Figure 6: Max uncollected versions (nq=%d, %d query threads)",
		cfg.NQ, cfg.Procs-1), headers...)
	for _, nu := range cfg.NUs {
		row := []string{fmt.Sprint(nu)}
		for _, alg := range cfg.Algorithms {
			c := RunTable2Cell(cfg.Table2Config, alg, cfg.NQ, nu)
			row = append(row, fmt.Sprint(c.MaxVersions))
		}
		t.AddRow(row...)
	}
	t.Fprint(w)
}

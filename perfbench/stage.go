package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"mvgc"
)

// counters is every counter the benchmark reads from outside the
// program, at one instant.
type counters struct {
	proc            procSnap
	batches         int64
	retries, fenced int64
	leaderFS        fsSnap
	followerFS      fsSnap
	lnWrites        int64
	lnBytes         int64
	followerPos     uint64
}

func (d *deployment) counters() (counters, error) {
	var c counters
	var err error
	if c.proc, err = readProc(); err != nil {
		return c, err
	}
	sdb := d.srv.DB()
	c.batches = sdb.Batches()
	c.retries, c.fenced = sdb.ConsistentStats()
	if d.leaderFS != nil {
		c.leaderFS = d.leaderFS.snap()
	}
	if d.followerFS != nil {
		c.followerFS = d.followerFS.snap()
	}
	if d.ln != nil {
		c.lnWrites = d.ln.writes.Load()
		c.lnBytes = d.ln.out.Load() + d.ln.in.Load()
	}
	if d.follower != nil {
		c.followerPos, _ = d.follower.Pos()
	}
	return c, nil
}

// sampler polls public counters while the load is measured: the
// leader's CommitGSN against the follower's Pos (replication lag, in
// time and in GSNs), DB.Uncollected and the log's live bytes.
type sampler struct {
	d         *deployment
	measuring atomic.Bool
	stop      chan struct{}
	done      chan struct{}

	// Written by the sampler goroutine, read after stop.
	lag         []int64 // ns from CommitGSN reaching g to Pos reaching g
	gsnLag      []int64
	uncollected []int64
	livePeak    int64
}

const samplePeriod = 200 * time.Microsecond

func startSampler(d *deployment) *sampler {
	s := &sampler{d: d, stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *sampler) run() {
	defer close(s.done)
	type obs struct {
		g uint64
		t time.Time
	}
	var queue []obs
	var last uint64
	sdb := s.d.srv.DB()
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		measuring := s.measuring.Load()
		if measuring {
			s.uncollected = append(s.uncollected, int64(sdb.Uncollected()))
			if live := sdb.WALStats().LiveBytes; live > s.livePeak {
				s.livePeak = live
			}
		}
		if s.d.follower == nil {
			continue
		}
		now := time.Now()
		g := sdb.CommitGSN()
		if g > last {
			queue = append(queue, obs{g, now})
			last = g
		}
		pos, _ := s.d.follower.Pos()
		i := 0
		for ; i < len(queue) && queue[i].g <= pos; i++ {
			if measuring {
				s.lag = append(s.lag, int64(now.Sub(queue[i].t)))
			}
		}
		queue = queue[i:]
		if measuring {
			s.gsnLag = append(s.gsnLag, int64(g-min(g, pos)))
		}
	}
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
	sortInts(s.lag)
	sortInts(s.gsnLag)
	sortInts(s.uncollected)
}

// pct is one latency sample summarized.
type pct struct {
	p50, p90, p99 float64 // µs
	n             int
}

func summarize(sorted []int64) pct {
	return summarizeWindows([][]int64{sorted})
}

// stage is one deployment exercised: loaded, measured, checked, closed.
type stage struct {
	lat       [numKinds]pct
	completed int64
	opsPerSec float64 // fast quartile over windows
	attempted int64
	failed    int64
	writes    int64 // acked SETs, measured phase
	scans     int64
	elapsed   time.Duration
	ping      pct
	c0, c1    counters
	smp       *sampler // nil when untraced
	syncLat   []int64  // leader fsync latencies, measured phase, sorted
	recover   time.Duration
	heapBytes int64 // heap in use after load, over the heap before set-up
}

// exerciseOpts says what a stage measures beyond the load itself.
type exerciseOpts struct {
	warmCheckpoints bool   // warm up until the checkpointer has run twice
	heap0           uint64 // when non-zero, the heap before set-up: report heapBytes
}

// exercise runs the load on d, then checks every oracle: GET and SCAN
// bounds during load, a full SCANC walk equal to the model, on durable
// deployments the follower equal to the model once caught up and the
// leader's directory reopened with OpenDB equal to it, and Live() == 0
// after every close.  The sampler runs only when traced (tr != nil), so
// the untraced run measures the load alone.
func exercise(d *deployment, w *workload, seed uint64, dur time.Duration, m *model, tr *tracer, opt exerciseOpts) (st stage, err error) {
	defer func() {
		if cerr := d.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var smp *sampler
	if tr != nil {
		smp = startSampler(d)
	}
	st.smp = smp
	var h hooks
	if opt.warmCheckpoints {
		// Measure the checkpointing steady state: warm up until the
		// background checkpointer has completed two checkpoints.
		var cuts []uint64
		h.warmed = func() bool {
			cut := d.srv.DB().WALStats().SnapshotCut
			if len(cuts) == 0 || cuts[len(cuts)-1] != cut {
				cuts = append(cuts, cut)
			}
			return len(cuts) >= 3
		}
	}
	var cerr error
	h.measureStart = func() {
		st.c0, cerr = d.counters()
		if tr != nil {
			smp.measuring.Store(true)
			tr.active.Store(true)
		}
	}
	h.measureEnd = func() {
		if tr != nil {
			smp.measuring.Store(false)
			tr.active.Store(false)
		}
		var e error
		st.c1, e = d.counters()
		if cerr == nil {
			cerr = e
		}
	}
	ld, ping, err := runLoad(d.addr, w, seed, dur, m, tr, h)
	if smp != nil {
		smp.finish()
	}
	if err != nil {
		return st, err
	}
	if cerr != nil {
		return st, cerr
	}
	if ld.oracle != nil {
		return st, fmt.Errorf("oracle: %w", ld.oracle)
	}
	for k := range ld.lat {
		st.lat[k] = summarizeWindows(ld.lat[k])
	}
	st.completed, st.attempted, st.failed = ld.completed(), ld.attempted, ld.failed
	st.opsPerSec = ld.opsPerSec()
	st.writes, st.scans = int64(samples(ld.lat[opSet])), int64(samples(ld.lat[opScan]))
	st.elapsed = ld.elapsed
	st.ping = summarize(ping)
	if d.leaderFS != nil {
		st.syncLat = d.leaderFS.syncLatBetween(st.c0.leaderFS, st.c1.leaderFS)
		sortInts(st.syncLat)
	}
	ld = loadResult{} // drop the samples before the heap is measured
	if opt.heap0 > 0 {
		st.heapBytes = int64(heapInUse()) - int64(opt.heap0)
	}

	if err := walkModel(d.addr, m); err != nil {
		return st, fmt.Errorf("store vs model: %w", err)
	}
	if !w.durable {
		return st, nil
	}
	if err := d.catchUp(30 * time.Second); err != nil {
		return st, err
	}
	if err := walkDB(d.fdb, m); err != nil {
		return st, fmt.Errorf("follower vs model: %w", err)
	}
	if err := d.close(); err != nil {
		return st, err
	}
	t0 := time.Now()
	re, err := mvgc.OpenDB[int64, int64, int64](mvgc.DBOptions[int64]{WAL: &mvgc.WALOptions{Dir: d.dir}}, mvgc.SumAug[int64](), nil)
	if err != nil {
		return st, fmt.Errorf("reopen leader: %w", err)
	}
	st.recover = time.Since(t0)
	werr := walkDB(re, m)
	if err := closeDB(re, "reopened leader"); err != nil {
		return st, err
	}
	if werr != nil {
		return st, fmt.Errorf("reopened leader vs model (acked writes lost?): %w", werr)
	}
	return st, nil
}

// walkDB compares an in-process DB against the model.
func walkDB(d *db, m *model) error {
	wk := walker{m: m}
	d.ViewConsistent(func(s mvgc.DBSnapshot[int64, int64, int64]) {
		s.ScanFunc(0, int(m.keys)+1, wk.visit)
	})
	return wk.done()
}

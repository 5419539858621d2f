package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mvgc/internal/netclient"
)

// Load phases.  Connections warm up, are measured, then stop issuing and
// drain their windows; only ops sent while measuring are counted.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// loadClock is the load's phase and, once measuring, the window an op's
// send time falls in.  start is written before phase is set to
// phaseMeasure and read only after a load of phase observes it.
type loadClock struct {
	phase atomic.Int32
	start time.Time
	win   time.Duration
	n     int
}

func (c *loadClock) window(t time.Time) int {
	i := int(t.Sub(c.start) / c.win)
	return min(max(i, 0), c.n-1)
}

// connResult is one connection's measured-phase tally.
type connResult struct {
	lat       [numKinds][][]int64 // per window, ns, send to reply
	attempted int64
	failed    int64
	oracle    error // first oracle violation, any phase
	err       error // transport failure
}

type inflight struct {
	p        *netclient.Pending
	t0       time.Time
	o        op
	val      int64 // SET value
	lo, hi   int64 // GET bounds
	measured bool
}

// driveConn runs one closed-loop connection: it keeps depth requests in
// flight, retiring the oldest (replies arrive in order) before sending
// the next, until the phase reaches phaseStop.
func driveConn(c *netclient.Client, w *workload, g *gen, m *model, clk *loadClock, tr *tracer, r *connResult) {
	for k := range r.lat {
		r.lat[k] = make([][]int64, clk.n)
	}
	window := make([]inflight, w.depth)
	head, count := 0, 0
	var seq int64 // this connection's SET values: 1, 2, 3, ...
	for r.err == nil {
		p := clk.phase.Load()
		if p == phaseStop {
			break
		}
		o := g.next()
		f := inflight{o: o, measured: p == phaseMeasure}
		switch o.kind {
		case opSet:
			seq++
			f.val = seq
			m.sent[o.key] = seq
			f.t0 = time.Now()
			f.p = c.SetAsync(o.key, seq)
		case opGet:
			f.lo, f.hi = m.acked[o.key], m.sent[o.key]
			f.t0 = time.Now()
			f.p = c.GetAsync(o.key)
		case opScan:
			f.t0 = time.Now()
			f.p = c.ScanAsync(o.key, o.n)
		}
		window[(head+count)%w.depth] = f
		count++
		if count == w.depth {
			if err := c.Flush(); err != nil {
				r.err = err
				break
			}
			retire(&window[head], w, m, clk, tr, r)
			head = (head + 1) % w.depth
			count--
		}
	}
	if err := c.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	for ; count > 0; count-- {
		retire(&window[head], w, m, clk, tr, r)
		head = (head + 1) % w.depth
	}
}

// clientSpanEvery samples client op spans (one measured op in this many
// per connection) so a whole run's spans fit the tracer's buffer.
const clientSpanEvery = 8

func retire(f *inflight, w *workload, m *model, clk *loadClock, tr *tracer, r *connResult) {
	werr := f.p.Wait()
	d := time.Since(f.t0)
	if f.measured && r.attempted%clientSpanEvery == 0 {
		tr.record(spanClientSet+uint8(f.o.kind), f.t0, d)
	}
	var err error
	switch f.o.kind {
	case opSet:
		if err = f.p.Err(); err == nil {
			m.acked[f.o.key] = f.val
		}
	case opGet:
		var v int64
		var found bool
		if v, found, err = f.p.Value(); err == nil {
			if e := checkGet(f.o.key, f.lo, f.hi, v, found); e != nil && r.oracle == nil {
				r.oracle = e
			}
		}
	case opScan:
		var ents []netclient.Entry
		if ents, err = f.p.Entries(); err == nil {
			if e := checkScan(w.keys, f.o.key, f.o.n, ents); e != nil && r.oracle == nil {
				r.oracle = e
			}
		}
	}
	if werr != nil && r.err == nil {
		r.err = werr
	}
	if !f.measured {
		return
	}
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	i := clk.window(f.t0)
	r.lat[f.o.kind][i] = append(r.lat[f.o.kind][i], int64(d))
}

// loadResult is the merged measured-phase outcome of one load.
type loadResult struct {
	lat       [numKinds][][]int64 // per window, each sorted
	win       time.Duration
	attempted int64
	failed    int64
	elapsed   time.Duration // measured phase, wall time
	oracle    error
}

func (l *loadResult) completed() int64 {
	var n int64
	for _, ws := range l.lat {
		n += int64(samples(ws))
	}
	return n
}

// opsPerSec is the fast quartile over windows of ops completed per
// second.
func (l *loadResult) opsPerSec() float64 {
	per := make([]float64, len(l.lat[0]))
	for _, ws := range l.lat {
		for i, s := range ws {
			per[i] += float64(len(s)) / l.win.Seconds()
		}
	}
	return quantileF(per, fastThroughputQ)
}

// hooks lets the caller observe the load's phase boundaries: measureStart
// runs just before measuring begins, measureEnd just after it ends, and
// warmed reports whether warm-up may end.
type hooks struct {
	warmed       func() bool
	measureStart func()
	measureEnd   func()
}

// minWarm and maxWarm bound the warm-up before measuring.
const (
	minWarm = 500 * time.Millisecond
	maxWarm = 60 * time.Second
)

// windowLen is the target length of a measurement window.  Latency
// percentiles and throughput are computed per window and the fast
// quartile over windows is reported (see fastLatencyQ), so noise from
// outside the benchmark that slows up to three quarters of a run's
// windows does not move the run's figure.
const windowLen = time.Second

// runLoad drives w against addr: conns closed-loop connections, each
// dialled, pinged (the wire floor, returned as pingRTT), warmed up, then
// measured for dur.
func runLoad(addr string, w *workload, seed uint64, dur time.Duration, m *model, tr *tracer, h hooks) (res loadResult, pingRTT []int64, err error) {
	clients := make([]*netclient.Client, w.conns)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range clients {
		if clients[i], err = netclient.Dial(addr, w.depth); err != nil {
			return res, nil, err
		}
	}
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := clients[i%w.conns].Ping(); err != nil {
			return res, nil, fmt.Errorf("ping: %w", err)
		}
		pingRTT = append(pingRTT, int64(time.Since(t0)))
	}

	zipf := newZipf(w)
	clk := &loadClock{n: max(1, int(dur/windowLen))}
	clk.win = dur / time.Duration(clk.n)
	res.win = clk.win
	var dead atomic.Bool // a connection returned: only on failure before phaseStop
	results := make([]connResult, w.conns)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer dead.Store(true)
			driveConn(clients[i], w, newGen(w, zipf, seed, i), m, clk, tr, &results[i])
		}(i)
	}
	stopped := false
	stop := func() {
		if !stopped {
			clk.phase.Store(phaseStop)
			wg.Wait()
			stopped = true
		}
	}
	defer stop()

	warmStart := time.Now()
	for time.Since(warmStart) < minWarm || (h.warmed != nil && !h.warmed()) {
		if time.Since(warmStart) > maxWarm {
			return res, nil, errors.New("warm-up did not finish")
		}
		if dead.Load() {
			break // a connection failed; its error surfaces below
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h.measureStart != nil {
		h.measureStart()
	}
	clk.start = time.Now()
	clk.phase.Store(phaseMeasure)
	time.Sleep(dur)
	clk.phase.Store(phaseStop)
	res.elapsed = time.Since(clk.start)
	if h.measureEnd != nil {
		h.measureEnd()
	}
	stop()

	for i := range results {
		r := &results[i]
		if r.err != nil {
			return res, nil, fmt.Errorf("connection %d: %w", i, r.err)
		}
		if r.oracle != nil && res.oracle == nil {
			res.oracle = fmt.Errorf("connection %d: %w", i, r.oracle)
		}
		res.attempted += r.attempted
		res.failed += r.failed
		for k := range r.lat {
			if res.lat[k] == nil {
				res.lat[k] = make([][]int64, clk.n)
			}
			for i, s := range r.lat[k] {
				res.lat[k][i] = append(res.lat[k][i], s...)
			}
		}
	}
	for k := range res.lat {
		for _, s := range res.lat[k] {
			sortInts(s)
		}
	}
	sortInts(pingRTT)
	return res, pingRTT, nil
}

// walkModel checks the whole store against the model over a fresh
// connection with the SCANC cursor (pages of 1000 keys), once the load
// has drained.
func walkModel(addr string, m *model) error {
	c, err := netclient.Dial(addr, 4)
	if err != nil {
		return err
	}
	defer c.Close()
	wk := walker{m: m}
	sc := c.Scanner(0, 1000)
	for sc.Next() {
		e := sc.Entry()
		if !wk.visit(e.Key, e.Val) {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return wk.done()
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// Span names, one per boundary the benchmark's own code wraps.
const (
	spanClientSet uint8 = iota // netclient SET, send to reply
	spanClientGet
	spanClientScan
	spanServerWrite // one server-side socket Write
	spanFSWrite     // one WAL file Write
	spanFSSync      // one WAL file Sync
	numSpanNames
)

var spanNames = [numSpanNames]string{"net.client.set", "net.client.get", "net.client.scan", "net.server.write", "wal.fs.write", "wal.fs.sync"}

// span is one timed interval at one boundary.  The boundaries are
// measured from outside the program, so spans do not nest: a client
// span is one request, an FS or socket span one call.
type span struct {
	id         uint32 // from 1, in recording order
	name       uint8
	start, dur int64 // ns since the tracer's base
}

// tracer keeps spans in a fixed in-memory buffer and writes them out
// when the run ends.  A nil *tracer records nothing, which is how the
// untraced run pays no tracing overhead.
type tracer struct {
	active  atomic.Bool // spans are kept only while a load is measured
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

// maxSpans bounds the buffer (16 MiB); later spans are counted as
// dropped.
const maxSpans = 1 << 19

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, maxSpans)} }

// record keeps one span that started at t0 and lasted d.
func (t *tracer) record(name uint8, t0 time.Time, d time.Duration) {
	if t == nil || !t.active.Load() {
		return
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{id: uint32(i + 1), name: name, start: int64(t0.Sub(t.base)), dur: int64(d)}
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// spanSummary is one span name's count and median duration.
type spanSummary struct {
	count int
	p50us float64
}

func (t *tracer) summary() [numSpanNames]spanSummary {
	var by [numSpanNames][]int64
	for _, s := range t.recorded() {
		by[s.name] = append(by[s.name], s.dur)
	}
	var out [numSpanNames]spanSummary
	for i, d := range by {
		sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
		out[i] = spanSummary{count: len(d), p50us: quantile(d, 0.5) / 1e3}
	}
	return out
}

// write saves the spans as tab-separated id, name, start_ns, dur_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "id\tname\tstart_ns\tdur_ns\n")
	for _, s := range t.recorded() {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\n", s.id, spanNames[s.name], s.start, s.dur)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

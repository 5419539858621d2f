package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mvgc/internal/wal"
)

// File kinds the FS wrapper splits bytes by.
const (
	kindSegment  = iota // seg-*.wal: the redo log
	kindSnapshot        // ck*: checkpoint snapshots (written as ck.tmp)
	kindOther           // repl.pos and anything else
	numFileKinds
)

func fileKind(name string) int {
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "seg-"):
		return kindSegment
	case strings.HasPrefix(base, "ck"):
		return kindSnapshot
	}
	return kindOther
}

// countFS wraps a wal.FS, counting bytes written per file kind and
// snapshot files created, and counting and timing every file Sync.  It
// sits outside the log, passed in through WALOptions.FS.
type countFS struct {
	wal.FS
	tr *tracer

	bytes     [numFileKinds]atomic.Int64
	snapshots atomic.Int64
	syncs     atomic.Int64

	mu      sync.Mutex
	syncLat []int64 // ns
}

func newCountFS(tr *tracer) *countFS { return &countFS{FS: wal.OsFS{}, tr: tr} }

func (c *countFS) Create(name string) (wal.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	k := fileKind(name)
	if k == kindSnapshot {
		c.snapshots.Add(1)
	}
	return &countFile{File: f, fs: c, kind: k}, nil
}

// fsSnap is a point-in-time copy of a countFS's counters.
type fsSnap struct {
	bytes     [numFileKinds]int64
	snapshots int64
	syncs     int64
	nlat      int
}

func (c *countFS) snap() fsSnap {
	var s fsSnap
	for k := range c.bytes {
		s.bytes[k] = c.bytes[k].Load()
	}
	s.snapshots = c.snapshots.Load()
	s.syncs = c.syncs.Load()
	c.mu.Lock()
	s.nlat = len(c.syncLat)
	c.mu.Unlock()
	return s
}

// syncLatBetween returns the Sync latencies recorded between two snaps.
func (c *countFS) syncLatBetween(a, b fsSnap) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.syncLat[a.nlat:b.nlat]...)
}

type countFile struct {
	wal.File
	fs   *countFS
	kind int
}

func (f *countFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.tr.record(spanFSWrite, t0, time.Since(t0))
	f.fs.bytes[f.kind].Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.fs.tr.record(spanFSSync, t0, d)
	f.fs.syncs.Add(1)
	f.fs.mu.Lock()
	f.fs.syncLat = append(f.fs.syncLat, int64(d))
	f.fs.mu.Unlock()
	return err
}

// countListener wraps the server's listener so every accepted
// connection counts the server's socket writes and bytes both ways.
type countListener struct {
	net.Listener
	tr              *tracer
	writes, out, in atomic.Int64
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, l: l}, nil
}

type countConn struct {
	net.Conn
	l *countListener
}

func (c *countConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.l.tr.record(spanServerWrite, t0, time.Since(t0))
	c.l.writes.Add(1)
	c.l.out.Add(int64(n))
	return n, err
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

// procSnap is the process-wide cost counters at one instant.
type procSnap struct {
	at         time.Time
	cpu        time.Duration // user + system
	allocs     uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the Go runtime accounts it
	writeBytes int64   // /proc/self/io write_bytes
	steal      int64   // machine-wide steal time, clock ticks (/proc/stat)
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() (procSnap, error) {
	s := procSnap{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	ms := make([]metrics.Sample, len(procSamples))
	copy(ms, procSamples)
	metrics.Read(ms)
	s.allocs = ms[0].Value.Uint64()
	s.gcCPU = ms[1].Value.Float64()
	s.totalCPU = ms[2].Value.Float64()
	wb, err := ioWriteBytes()
	if err != nil {
		return s, err
	}
	s.writeBytes = wb
	if s.steal, err = stealTicks(); err != nil {
		return s, err
	}
	return s, nil
}

// stealTicks reads the time the hypervisor ran other guests while this
// machine's CPUs wanted to run, summed over CPUs, in clock ticks.
func stealTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// ioWriteBytes reads the bytes this process caused to be sent to the
// storage layer.
func ioWriteBytes() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes: "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/io has no write_bytes")
}

// heapInUse returns HeapAlloc after two full collections (the second
// also frees what sync.Pool victim caches held through the first).
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

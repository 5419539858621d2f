package bench

import (
	"encoding/json"
	"io"
)

// YCSBSchema identifies the machine-readable result format emitted by
// cmd/ycsbbench -json; bump the version when fields change meaning.
const YCSBSchema = "BENCH_ycsb/v1"

// YCSBRecord is one (structure, workload) measurement.
type YCSBRecord struct {
	Structure string  `json:"structure"`
	Workload  string  `json:"workload"`
	Mops      float64 `json:"mops"`
	// WAL marks cells measured with the write-ahead log attached (every
	// batch commit appends and fsyncs).  Omitted when false so pre-WAL
	// baselines stay byte-identical.
	WAL bool `json:"wal,omitempty"`
}

// YCSBReport is the BENCH_ycsb.json document: run configuration plus every
// measured cell, so successive PRs can track the throughput trajectory.
type YCSBReport struct {
	Schema      string       `json:"schema"`
	Threads     int          `json:"threads"`
	Shards      int          `json:"shards,omitempty"`
	Records     uint64       `json:"records"`
	DurationSec float64      `json:"duration_sec"`
	Results     []YCSBRecord `json:"results"`
}

// WriteJSON renders the report as indented JSON.
func (r *YCSBReport) WriteJSON(w io.Writer) error {
	r.Schema = YCSBSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// AllocSchema identifies the machine-readable allocator-benchmark format
// emitted by cmd/allocbench -json; bump the version when fields change
// meaning.
const AllocSchema = "BENCH_alloc/v1"

// AllocRecord is one allocator cell: a measured path (point-update,
// batch-commit) under one allocator setting (recycle on or off), with the
// Go-heap bytes and allocations per operation alongside latency.  BPerOp
// is the headline: 0 on the warm point-update path is the magazine
// allocator working as designed.
type AllocRecord struct {
	Path        string  `json:"path"`
	Recycle     bool    `json:"recycle"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
}

// AllocReport is the BENCH_alloc.json document: run configuration plus
// every measured cell, so successive PRs can track the write path's
// allocation trajectory the same way BENCH_ycsb tracks throughput.
type AllocReport struct {
	Schema    string        `json:"schema"`
	Records   uint64        `json:"records"`
	BatchSize int           `json:"batch_size"`
	Procs     int           `json:"procs"`
	Results   []AllocRecord `json:"results"`
}

// WriteJSON renders the report as indented JSON.
func (r *AllocReport) WriteJSON(w io.Writer) error {
	r.Schema = AllocSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// InvSchema identifies the machine-readable result format emitted by
// cmd/invbench -json; bump the version when fields change meaning.
const InvSchema = "BENCH_inv/v1"

// InvRecord is one Table 3 row: p query threads co-running with one
// ingesting writer.  Shards == 0 marks the paper's single-index rows (the
// index run at one shard); Shards > 0 is the row partitioned across that
// many shards.
type InvRecord struct {
	QueryThreads int     `json:"query_threads"`
	Shards       int     `json:"shards,omitempty"`
	Updates      int64   `json:"updates"`
	Queries      int64   `json:"queries"`
	TuSec        float64 `json:"tu_sec"`
	TqSec        float64 `json:"tq_sec"`
	TuqSec       float64 `json:"tuq_sec"`
}

// InvReport is the BENCH_inv.json document: run configuration plus every
// measured row, so successive PRs can track the co-running trajectory.
type InvReport struct {
	Schema      string      `json:"schema"`
	Threads     int         `json:"threads"`
	Vocab       uint64      `json:"vocab"`
	InitialDocs int         `json:"initial_docs"`
	WindowSec   float64     `json:"window_sec"`
	Results     []InvRecord `json:"results"`
}

// WriteJSON renders the report as indented JSON.
func (r *InvReport) WriteJSON(w io.Writer) error {
	r.Schema = InvSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MemSchema identifies the machine-readable result format emitted by
// cmd/ycsbbench -longreader; bump the version when fields change meaning.
const MemSchema = "BENCH_mem/v1"

// MemRecord is one algorithm's long-reader-plus-write-storm cell.
// PeakVersions is the headline space metric: the largest retained-version
// count observed while one read transaction pinned a snapshot through a
// fixed-size write storm — a space-bounded collector plateaus at O(P),
// an epoch-style one grows with the op count.  PeakHeapBytes is the
// matching Go-heap high-water mark and WriteMops the writers' committed
// throughput while contending with the pin.
type MemRecord struct {
	Algorithm     string  `json:"algorithm"`
	PeakVersions  int64   `json:"peak_versions"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	WriteMops     float64 `json:"write_mops"`
}

// MemReport is the BENCH_mem.json document: storm configuration plus every
// measured cell, so successive PRs can track the space-under-pinned-reader
// trajectory the same way BENCH_ycsb tracks throughput.
type MemReport struct {
	Schema       string      `json:"schema"`
	Records      uint64      `json:"records"`
	Writers      int         `json:"writers"`
	OpsPerWriter int         `json:"ops_per_writer"`
	Results      []MemRecord `json:"results"`
}

// WriteJSON renders the report as indented JSON.
func (r *MemReport) WriteJSON(w io.Writer) error {
	r.Schema = MemSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// NetSchema identifies the machine-readable result format emitted by
// cmd/netbench -json; bump the version when fields change meaning.
const NetSchema = "BENCH_net/v1"

// NetRecord is one (connections, pipeline-depth) cell of the serving-layer
// sweep.  CommitsPerOp is the headline coalescing metric: combiner commits
// divided by write ops — it should fall toward shards/(batch arrival rate)
// as connections and depth grow, far below the 1.0 of an unbatched server.
// ScanFrac is zero for the classic GET/SET grid and positive for the scan
// cell, where that fraction of operations are SCAN commands streaming a
// merged range off one consistent cut; it is part of the cell's identity
// (omitempty keeps pre-scan baselines' keys byte-identical).
// Repl marks the replication cell, which runs against a WAL-backed leader
// with a live follower attached: ReplLagP50Us/ReplLagP99Us are the probe
// writes' acked-on-leader to visible-on-follower latency percentiles.
// Like ScanFrac, Repl is part of the cell's identity and omitted when
// false so pre-replication baselines' keys stay byte-identical.
type NetRecord struct {
	Conns        int     `json:"conns"`
	Depth        int     `json:"depth"`
	ScanFrac     float64 `json:"scan_frac,omitempty"`
	Repl         bool    `json:"repl,omitempty"`
	Ops          int64   `json:"ops"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	P50Us        float64 `json:"p50_us"`
	P99Us        float64 `json:"p99_us"`
	CommitsPerOp float64 `json:"commits_per_op"`
	ReplLagP50Us float64 `json:"repl_lag_p50_us,omitempty"`
	ReplLagP99Us float64 `json:"repl_lag_p99_us,omitempty"`
}

// NetReport is the BENCH_net.json document: serving-layer configuration
// plus every swept cell, so successive PRs can track the network front
// door's throughput, tail latency and write-coalescing trajectory.
type NetReport struct {
	Schema      string      `json:"schema"`
	Shards      int         `json:"shards"`
	WriteFrac   float64     `json:"write_frac"`
	Keys        int64       `json:"keys"`
	DurationSec float64     `json:"duration_sec"`
	Results     []NetRecord `json:"results"`
}

// WriteJSON renders the report as indented JSON.
func (r *NetReport) WriteJSON(w io.Writer) error {
	r.Schema = NetSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

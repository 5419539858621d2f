package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mvgc/internal/netclient"
	"mvgc/internal/netproto"
)

// cannedServer answers each request on nc with the next canned reply,
// whatever the request was, so a test can put any value on the wire.
func cannedServer(nc net.Conn, replies []func(w *netproto.Writer)) {
	defer nc.Close()
	r := netproto.NewReader(nc)
	w := netproto.NewWriter(nc)
	var cmd netproto.Command
	for _, reply := range replies {
		if r.ReadCommand(&cmd) != nil {
			return
		}
		reply(w)
		if w.Flush() != nil {
			return
		}
	}
}

func scanReply(keys ...int64) func(w *netproto.Writer) {
	return func(w *netproto.Writer) {
		w.BeginArray(2 * len(keys))
		for _, k := range keys {
			w.Int(k)
			w.Int(0)
		}
	}
}

// TestOracleCatchesBadReplies sends replies through the real client and
// the load's retire path: the checker accepts a correct GET and SCAN and
// flags one corrupted GET value and one out-of-order SCAN, so it is not
// vacuous.
func TestOracleCatchesBadReplies(t *testing.T) {
	cases := []struct {
		name  string
		reply func(w *netproto.Writer)
		o     op
		bad   bool
	}{
		{"get in bounds", func(w *netproto.Writer) { w.BulkInt(3) }, op{kind: opGet, key: 7}, false},
		{"get corrupted", func(w *netproto.Writer) { w.BulkInt(999) }, op{kind: opGet, key: 7}, true},
		{"get missing", func(w *netproto.Writer) { w.Null() }, op{kind: opGet, key: 7}, true},
		{"scan in order", scanReply(5, 6, 7), op{kind: opScan, key: 5, n: 3}, false},
		{"scan out of order", scanReply(5, 7, 6), op{kind: opScan, key: 5, n: 3}, true},
		{"scan below lo", scanReply(4, 5, 6), op{kind: opScan, key: 5, n: 3}, true},
		{"scan too long", scanReply(5, 6, 7, 8), op{kind: opScan, key: 5, n: 3}, true},
		{"scan skips a key", scanReply(5, 7, 8), op{kind: opScan, key: 5, n: 3}, true},
	}
	w := workload{name: "test", conns: 1, depth: 1, keys: 100}
	m := newModel(w.keys)
	m.acked[7], m.sent[7] = 2, 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			go cannedServer(srv, []func(*netproto.Writer){tc.reply})
			c := netclient.NewClient(cli, 1)
			defer c.Close()
			clk := &loadClock{start: time.Now(), win: time.Second, n: 1}
			r := connResult{}
			for k := range r.lat {
				r.lat[k] = make([][]int64, 1)
			}
			f := inflight{o: tc.o, t0: time.Now(), measured: true, lo: m.acked[7], hi: m.sent[7]}
			if tc.o.kind == opGet {
				f.p = c.GetAsync(tc.o.key)
			} else {
				f.p = c.ScanAsync(tc.o.key, tc.o.n)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			retire(&f, &w, m, clk, nil, &r)
			if r.err != nil {
				t.Fatal(r.err)
			}
			if got := r.oracle != nil; got != tc.bad {
				t.Fatalf("oracle flagged=%v (%v), want %v", got, r.oracle, tc.bad)
			}
		})
	}
}

// TestWalkerCatchesLostWrite checks the end-of-run comparison: a key
// holding less than its last acked value (a lost write) or a missing key
// fails the walk.
func TestWalkerCatchesLostWrite(t *testing.T) {
	m := newModel(3)
	m.acked[1], m.sent[1] = 5, 5
	walk := func(vals ...int64) error {
		wk := walker{m: m}
		for k, v := range vals {
			if !wk.visit(int64(k), v) {
				break
			}
		}
		return wk.done()
	}
	if err := walk(0, 5, 0); err != nil {
		t.Fatalf("correct walk flagged: %v", err)
	}
	if walk(0, 4, 0) == nil {
		t.Fatal("lost write not flagged")
	}
	if walk(0, 5) == nil {
		t.Fatal("missing key not flagged")
	}
}

// TestWorkloadsBrief runs every workload briefly, untraced, and the
// first one traced: each must pass every check and report every metric
// BENCHMARK.json names, finite and (end to end) positive.
func TestWorkloadsBrief(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the servers for several seconds")
	}
	spec := readSpec(t)
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for i, w := range workloads {
		ms, st, err := run(&w, 1, time.Second, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if st.attempted == 0 || st.failed != 0 {
			t.Fatalf("%s: attempted %d, failed %d", w.name, st.attempted, st.failed)
		}
		checkMetrics(t, w.name, ms, spec.EndToEnd, true)
		if i == 0 {
			ms, _, err := run(&w, 1, time.Second, true)
			if err != nil {
				t.Fatalf("%s traced: %v", w.name, err)
			}
			checkMetrics(t, w.name+" traced", ms, spec.PerLayer, false)
		}
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	return s
}

func checkMetrics(t *testing.T, what string, ms []metric, want []specMetric, positive bool) {
	t.Helper()
	got := map[string]metric{}
	for _, m := range ms {
		got[m.name] = m
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, s := range want {
		m, ok := got[s.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, s.Name)
		case m.unit != s.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", what, s.Name, m.unit, s.Unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value < 0 || (positive && m.value == 0):
			t.Errorf("%s: metric %s = %v", what, s.Name, m.value)
		}
	}
}

package main

import (
	"fmt"

	"mvgc/internal/netclient"
)

// model is the oracle's view of the store.  Every key is preloaded with
// value 0 and written only by the connection owning its residue class,
// with that connection's strictly increasing sequence numbers, so for
// each key sent[k] is the last value sent and acked[k] the last value
// whose SET reply arrived.  A slot is only touched by its owner's
// goroutine; readers from other goroutines run after the load has ended.
type model struct {
	keys  int64
	sent  []int64
	acked []int64
}

func newModel(keys int64) *model {
	return &model{keys: keys, sent: make([]int64, keys), acked: make([]int64, keys)}
}

// checkGet verifies a GET reply against the bounds captured when it was
// sent: at least the last value acked then, at most the last value sent.
func checkGet(key, lo, hi, got int64, found bool) error {
	if !found {
		return fmt.Errorf("GET %d: missing preloaded key", key)
	}
	if got < lo || got > hi {
		return fmt.Errorf("GET %d = %d, want within [%d, %d]", key, got, lo, hi)
	}
	return nil
}

// checkScan verifies a SCAN reply: keys strictly increasing, from lo on,
// at most n entries.  The keyspace is dense and nothing is deleted, so
// the reply must in fact be exactly the keys lo, lo+1, ... up to n of
// them or the end of the keyspace.
func checkScan(keys, lo int64, n int, ents []netclient.Entry) error {
	if len(ents) > n {
		return fmt.Errorf("SCAN %d %d returned %d entries", lo, n, len(ents))
	}
	for i, e := range ents {
		if e.Key < lo {
			return fmt.Errorf("SCAN %d %d: key %d below lo", lo, n, e.Key)
		}
		if i > 0 && e.Key <= ents[i-1].Key {
			return fmt.Errorf("SCAN %d %d: key %d after %d", lo, n, e.Key, ents[i-1].Key)
		}
	}
	want := int64(n)
	if keys-lo < want {
		want = keys - lo
	}
	if int64(len(ents)) != want {
		return fmt.Errorf("SCAN %d %d returned %d entries, want %d", lo, n, len(ents), want)
	}
	for i, e := range ents {
		if e.Key != lo+int64(i) {
			return fmt.Errorf("SCAN %d %d: entry %d has key %d", lo, n, i, e.Key)
		}
	}
	return nil
}

// walker checks a full ordered walk of the store against the model once
// the load has drained: each key holds a value between the last one
// acked and the last one sent (equal, unless a SET failed).
type walker struct {
	m    *model
	next int64
	err  error
}

func (w *walker) visit(k, v int64) bool {
	switch {
	case k != w.next || k >= w.m.keys:
		w.err = fmt.Errorf("walk: key %d, want %d", k, w.next)
	case v < w.m.acked[k] || v > w.m.sent[k]:
		w.err = fmt.Errorf("walk: key %d = %d, want within [%d, %d]", k, v, w.m.acked[k], w.m.sent[k])
	}
	w.next++
	return w.err == nil
}

func (w *walker) done() error {
	if w.err == nil && w.next != w.m.keys {
		w.err = fmt.Errorf("walk ended after %d keys, want %d", w.next, w.m.keys)
	}
	return w.err
}

package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
)

// ErrTailTruncated means the requested tail position is no longer
// retained (a checkpoint retired it, or records the tailer has not
// shipped were retired out from under it).  The caller recovers by
// bootstrapping from LatestSnapshot and tailing again with
// TailSnapshot.
var ErrTailTruncated = fmt.Errorf("wal: tail position retired (bootstrap from the latest snapshot)")

// ErrTailerClosed is returned by Next after Close.
var ErrTailerClosed = fmt.Errorf("wal: tailer closed")

// maxTailRead bounds one read from a segment file, so a tailer never
// materialises a whole segment at once.
const maxTailRead = 256 << 10

// Tailer follows the log's durable byte stream: every record fsynced to
// a segment, in log-append (byte) order, across segment seals and
// checkpoint retirements.  Only durable bytes are ever returned — a
// record a crash could still un-happen is never shipped.
//
// The tailer's floor is the GSN its consumer already covers via a
// snapshot: records at or below it may be skipped.  That is what makes
// checkpoint retirement safe mid-tail — a retired segment only holds
// records with GSN <= the checkpoint cut, so when the log's newest cut
// is <= floor the tailer silently jumps the gap; otherwise it reports
// ErrTailTruncated and the consumer re-bootstraps.
//
// A Tailer is owned by one goroutine; only Close may be called
// concurrently (it wakes a blocked Next, which then returns
// ErrTailerClosed).
type Tailer struct {
	l     *Log
	floor uint64 // consumer's snapshot coverage: GSNs <= floor are skippable
	seq   uint64 // segment being read
	off   int64  // next unread byte offset within seq
	f     File   // open sequential handle on seq, positioned at off (nil until used)
	buf   []byte // carry: bytes read from the file but not yet parsed into frames

	closed bool // under l.mu
}

// Tail returns a Tailer positioned immediately after the durable record
// stamped afterGSN, resuming a consumer whose snapshot coverage is
// floor.  afterGSN 0 starts at the earliest retained byte (valid only
// when floor covers the newest checkpoint cut, or no checkpoint exists).
// ErrTailTruncated means the position is not resumable and the consumer
// must bootstrap from the latest snapshot.
func (l *Log) Tail(afterGSN, floor uint64) (*Tailer, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrLogClosed
	}
	segs := l.retainedLocked()
	snapCut := l.snapCut
	l.mu.Unlock()

	if afterGSN == 0 {
		if snapCut > floor {
			return nil, ErrTailTruncated
		}
		first := segs[0]
		return &Tailer{l: l, floor: floor, seq: first.seq, off: int64(len(segMagic))}, nil
	}
	for _, sg := range segs {
		off, found, err := scanForGSN(l.fs, sg.name, sg.limit, afterGSN)
		if err != nil {
			// The segment may have been retired mid-scan; report that as
			// a truncation so the caller bootstraps instead of failing.
			if gone := !l.isRetained(sg.seq); gone {
				return nil, ErrTailTruncated
			}
			return nil, err
		}
		if found {
			return &Tailer{l: l, floor: floor, seq: sg.seq, off: off}, nil
		}
	}
	return nil, ErrTailTruncated
}

// TailSnapshot returns a Tailer for a consumer that just applied the
// checkpoint covering cut: it starts at the earliest retained byte with
// floor = cut.  ErrTailTruncated means a newer checkpoint superseded
// cut before the tail began; re-fetch LatestSnapshot and retry.
func (l *Log) TailSnapshot(cut uint64) (*Tailer, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrLogClosed
	}
	if cut < l.snapCut {
		l.mu.Unlock()
		return nil, ErrTailTruncated
	}
	first := l.retainedLocked()[0]
	l.mu.Unlock()
	return &Tailer{l: l, floor: cut, seq: first.seq, off: int64(len(segMagic))}, nil
}

// LatestSnapshot reads the newest durable checkpoint (cut + payload).
// ok=false with nil err means no checkpoint exists yet.  Concurrent
// checkpoints can retire the file mid-read; the read retries against
// the newer snapshot.
func (l *Log) LatestSnapshot() (cut uint64, payload []byte, ok bool, err error) {
	for tries := 0; tries < 5; tries++ {
		l.mu.Lock()
		seq := l.snapSeq
		closed := l.closed
		l.mu.Unlock()
		if closed {
			return 0, nil, false, ErrLogClosed
		}
		if seq == 0 {
			return 0, nil, false, nil
		}
		cut, payload, ok, err = readSnapshot(l.fs, filepath.Join(l.dir, snapName(seq)))
		if err == nil && ok {
			return cut, payload, true, nil
		}
		l.mu.Lock()
		raced := l.snapSeq != seq
		l.mu.Unlock()
		if !raced {
			if err == nil {
				err = fmt.Errorf("wal: snapshot %d failed validation", seq)
			}
			return 0, nil, false, err
		}
	}
	return 0, nil, false, fmt.Errorf("wal: snapshot read kept racing with checkpoints")
}

// tailSeg is one retained segment as a Tailer sees it: name plus the
// byte limit it may read (full size for sealed segments, the durable
// watermark for the current one).
type tailSeg struct {
	seq   uint64
	name  string
	limit int64
}

// retainedLocked lists the retained segments in sequence order, the
// current segment last.  Caller holds l.mu.
func (l *Log) retainedLocked() []tailSeg {
	segs := make([]tailSeg, 0, len(l.sealed)+1)
	for _, s := range l.sealed {
		segs = append(segs, tailSeg{seq: s.seq, name: s.name, limit: s.size})
	}
	return append(segs, tailSeg{seq: l.curSeq, name: l.curName, limit: l.curDurable})
}

// isRetained reports whether seq is still a retained segment.
func (l *Log) isRetained(seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq == l.curSeq {
		return true
	}
	for _, s := range l.sealed {
		if s.seq == seq {
			return true
		}
	}
	return false
}

// windowLocked reports the byte limit a tailer may read in its current
// segment.  live means the segment is the log's current one (the limit
// can still grow); gone means it was retired.  Caller holds l.mu.
func (t *Tailer) windowLocked() (limit int64, name string, live, gone bool) {
	l := t.l
	if t.seq == l.curSeq {
		return l.curDurable, l.curName, true, false
	}
	for _, s := range l.sealed {
		if s.seq == t.seq {
			return s.size, s.name, false, false
		}
	}
	return 0, "", false, true
}

// nextRetainedLocked returns the smallest retained sequence number
// strictly above seq.  Caller holds l.mu; the current segment always
// qualifies, so ok is false only if seq is at or past it.
func (l *Log) nextRetainedLocked(seq uint64) (uint64, bool) {
	if seq >= l.curSeq {
		return 0, false
	}
	next := l.curSeq
	for _, s := range l.sealed {
		if s.seq > seq && s.seq < next {
			next = s.seq
		}
	}
	return next, true
}

// Next returns the next batch of durable records in log-append order.
// With wait=true it blocks until records are available (forcing a sync
// of buffered appends first, so FsyncOff/Interval logs still ship
// promptly); with wait=false it returns (nil, nil) when caught up.
// Terminal returns: ErrTailTruncated (re-bootstrap), ErrLogClosed (the
// log closed and every durable byte has been returned), ErrTailerClosed
// (Close was called), or the log's sticky error.
func (t *Tailer) Next(wait bool) ([]Record, error) {
	l := t.l
	for {
		l.mu.Lock()
		if t.closed {
			l.mu.Unlock()
			t.drop()
			return nil, ErrTailerClosed
		}
		limit, name, live, gone := t.windowLocked()
		switch {
		case gone:
			// Retired out from under us.  The unread remainder held only
			// records <= the checkpoint cut; without floor coverage the
			// consumer must re-bootstrap.
			snapCut := l.snapCut
			l.mu.Unlock()
			t.drop()
			if snapCut <= t.floor {
				if next, ok := t.advance(); ok {
					t.seq, t.off = next, int64(len(segMagic))
					continue
				}
			}
			return nil, ErrTailTruncated
		case t.off < limit:
			l.mu.Unlock()
			recs, err := t.read(name, limit)
			if err != nil {
				t.drop()
				// Distinguish a retirement race from real I/O failure.
				if !l.isRetained(t.seq) {
					return nil, ErrTailTruncated
				}
				return nil, err
			}
			if len(recs) > 0 {
				return recs, nil
			}
			continue // read stopped mid-frame; next pass reads the rest
		case !live:
			// Sealed segment fully consumed: move to the next retained
			// one.  A sequence gap means segments were retired (or
			// removed as headerless at recovery); jumping it is lossless
			// only when the newest checkpoint cut is within our floor.
			if len(t.buf) != 0 {
				l.mu.Unlock()
				t.drop()
				return nil, fmt.Errorf("wal: tail %s: partial frame at sealed segment end", name)
			}
			next, ok := l.nextRetainedLocked(t.seq)
			if !ok || (next != t.seq+1 && l.snapCut > t.floor) {
				l.mu.Unlock()
				t.drop()
				return nil, ErrTailTruncated
			}
			l.mu.Unlock()
			t.drop()
			t.seq, t.off = next, int64(len(segMagic))
		case l.closed:
			l.mu.Unlock()
			t.drop()
			return nil, ErrLogClosed
		case l.err != nil:
			err := l.err
			l.mu.Unlock()
			t.drop()
			return nil, err
		case !wait:
			l.mu.Unlock()
			return nil, nil
		default:
			// Caught up with the active segment's durable bytes: push any
			// buffered appends toward durability, then sleep until the
			// window can move.
			l.mu.Unlock()
			l.Sync() //nolint:errcheck // a sticky error surfaces next pass
			l.mu.Lock()
			lim, _, _, gone := t.windowLocked()
			if !gone && lim <= t.off && !t.closed && !l.closed && l.err == nil {
				l.tailWaiters++
				l.tailCond.Wait()
				l.tailWaiters--
			}
			l.mu.Unlock()
		}
	}
}

// advance finds the next retained sequence after t.seq (used on the
// retired-under-us path, where the caller dropped l.mu).
func (t *Tailer) advance() (uint64, bool) {
	t.l.mu.Lock()
	defer t.l.mu.Unlock()
	return t.l.nextRetainedLocked(t.seq)
}

// read pulls up to maxTailRead bytes of the durable window into the
// carry buffer and parses whole frames out of it.  Frames split by the
// read cap stay in the carry until the next call.
func (t *Tailer) read(name string, limit int64) ([]Record, error) {
	if t.f == nil {
		f, err := t.l.fs.Open(name)
		if err != nil {
			return nil, err
		}
		t.f = f
		if t.off > 0 {
			if _, err := io.CopyN(io.Discard, f, t.off); err != nil {
				return nil, fmt.Errorf("wal: tail %s: seek to %d: %w", name, t.off, err)
			}
		}
	}
	n := limit - t.off
	if n > maxTailRead {
		n = maxTailRead
	}
	start := len(t.buf)
	t.buf = append(t.buf, make([]byte, n)...)
	if _, err := io.ReadFull(t.f, t.buf[start:]); err != nil {
		t.buf = t.buf[:start]
		return nil, fmt.Errorf("wal: tail %s: %w", name, err)
	}
	t.off += n

	var recs []Record
	off := 0
	for {
		rec, n, err := decodeFrame(t.buf[off:])
		if errors.Is(err, errFrameShort) {
			break // the rest of the frame is beyond this read
		}
		if err != nil {
			return nil, fmt.Errorf("wal: tail %s: %w inside durable window", name, err)
		}
		rec.Payload = bytes.Clone(rec.Payload)
		recs = append(recs, rec)
		off += n
	}
	t.buf = append(t.buf[:0], t.buf[off:]...)
	return recs, nil
}

// drop closes the segment handle and clears the carry buffer.
func (t *Tailer) drop() {
	if t.f != nil {
		t.f.Close() //nolint:errcheck // read-only handle
		t.f = nil
	}
	t.buf = t.buf[:0]
}

// Close stops the tailer: a concurrent Next blocked in wait wakes and
// returns ErrTailerClosed (dropping the file handle on its way out).
func (t *Tailer) Close() error {
	l := t.l
	l.mu.Lock()
	if !t.closed {
		t.closed = true
		l.tailCond.Broadcast()
	}
	l.mu.Unlock()
	return nil
}

// scanForGSN walks the first limit bytes of a segment looking for the
// frame stamped gsn, returning the offset just past it.  Every frame it
// passes must decode, CRC included: the bytes are inside the durable
// window.
func scanForGSN(fs FS, name string, limit int64, gsn uint64) (after int64, found bool, err error) {
	if limit <= int64(len(segMagic)) {
		return 0, false, nil
	}
	f, err := fs.Open(name)
	if err != nil {
		return 0, false, err
	}
	data := make([]byte, limit)
	_, err = io.ReadFull(f, data)
	f.Close() //nolint:errcheck // read-only handle
	if err != nil {
		return 0, false, fmt.Errorf("wal: scan %s: %w", name, err)
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, false, fmt.Errorf("wal: scan %s: bad segment header", name)
	}
	off := len(segMagic)
	for off+frameHeader <= len(data) {
		rec, n, err := decodeFrame(data[off:])
		if err != nil {
			return 0, false, fmt.Errorf("wal: scan %s: %w inside durable window", name, err)
		}
		off += n
		if rec.GSN == gsn {
			return int64(off), true, nil
		}
	}
	return 0, false, nil
}

// Package faultinject is the chaos harness for the durability and
// isolation tests: injectable fault points that simulate the failures a
// production stream engine must survive — torn and corrupted WAL tails,
// fsync errors, crashes at arbitrary byte offsets, panicking operators
// (worker panics under the sharded runtime), stalled shards, and
// duplicated or delayed channel delivery.
//
// The package deliberately has no dependency on the engine: faults are
// injected from the outside, through the wal.File seam, through
// operators.Op wrappers installed in plans, and through physical-stream
// transforms — so the engine's production code paths are exactly the ones
// under test.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/operators"
	"repro/internal/stream"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// ---------------------------------------------------------------------------
// WAL byte corruptors — the mutations the corrupt-input recovery tests
// apply to a well-formed log image.

// TornTail drops the last n bytes, simulating a crash mid-write.
func TornTail(b []byte, n int) []byte {
	if n >= len(b) {
		return nil
	}
	return b[:len(b)-n]
}

// TruncateAt keeps only the first off bytes.
func TruncateAt(b []byte, off int64) []byte {
	if off >= int64(len(b)) {
		return b
	}
	if off < 0 {
		return nil
	}
	return b[:off]
}

// FlipByte returns a copy with the byte at off inverted — a checksum-
// detectable single-byte corruption.
func FlipByte(b []byte, off int64) []byte {
	out := append([]byte(nil), b...)
	if off >= 0 && off < int64(len(out)) {
		out[off] ^= 0xFF
	}
	return out
}

// ---------------------------------------------------------------------------
// Faulty file — injects fsync errors and crash-at-offset torn writes
// underneath a wal.Log.

// ErrInjectedSync is the error a File returns from its scheduled fsync
// failure.
var ErrInjectedSync = errors.New("faultinject: injected fsync error")

// ErrCrashed is returned by every operation after a File's crash point.
var ErrCrashed = errors.New("faultinject: file crashed")

// File wraps a wal.File with injectable storage faults.
type File struct {
	Inner wal.File
	// FailSyncAt makes the nth Sync call (1-based) return ErrInjectedSync;
	// 0 disables.
	FailSyncAt int
	// CrashAtByte simulates a kill at a byte offset: writes are applied
	// only up to that many total bytes (a final partial write models the
	// torn record) and every later operation returns ErrCrashed. < 0
	// disables.
	CrashAtByte int64

	syncs   int
	written int64
	crashed bool
}

// NewFile wraps inner with no faults armed (CrashAtByte disabled).
func NewFile(inner wal.File) *File {
	return &File{Inner: inner, CrashAtByte: -1}
}

func (f *File) Read(p []byte) (int, error) {
	if f.crashed {
		return 0, ErrCrashed
	}
	return f.Inner.Read(p)
}

func (f *File) Seek(off int64, whence int) (int64, error) {
	if f.crashed {
		return 0, ErrCrashed
	}
	return f.Inner.Seek(off, whence)
}

func (f *File) Truncate(size int64) error {
	if f.crashed {
		return ErrCrashed
	}
	return f.Inner.Truncate(size)
}

func (f *File) Write(p []byte) (int, error) {
	if f.crashed {
		return 0, ErrCrashed
	}
	if f.CrashAtByte >= 0 && f.written+int64(len(p)) > f.CrashAtByte {
		keep := f.CrashAtByte - f.written
		if keep > 0 {
			f.Inner.Write(p[:keep]) // the torn tail reaches the disk
		}
		f.crashed = true
		f.written += keep
		return int(keep), ErrCrashed
	}
	n, err := f.Inner.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *File) Sync() error {
	if f.crashed {
		return ErrCrashed
	}
	f.syncs++
	if f.FailSyncAt > 0 && f.syncs == f.FailSyncAt {
		return ErrInjectedSync
	}
	return f.Inner.Sync()
}

func (f *File) Close() error {
	if f.crashed {
		return ErrCrashed
	}
	return f.Inner.Close()
}

// Syncs reports how many Sync calls the file has seen.
func (f *File) Syncs() int { return f.syncs }

// ---------------------------------------------------------------------------
// Operator faults — panic and stall injection for quarantine and
// shard-isolation tests.

// PanicOp wraps an operator and panics on the nth data event it processes
// (counted across the live instance and every clone, so monitor
// checkpoint replays cannot disarm it). It drives the engine's quarantine
// path: a worker goroutine or single-shard push hits the panic, and the
// engine must isolate the query without deadlocking siblings.
type PanicOp struct {
	Inner operators.Op
	// After is the 1-based count of the Process call that panics.
	After int64
	count *int64
}

// NewPanicOp arms inner to panic on the nth Process call.
func NewPanicOp(inner operators.Op, after int) *PanicOp {
	return &PanicOp{Inner: inner, After: int64(after), count: new(int64)}
}

// Name implements operators.Op.
func (p *PanicOp) Name() string { return "faultinject.panic(" + p.Inner.Name() + ")" }

// Arity implements operators.Op.
func (p *PanicOp) Arity() int { return p.Inner.Arity() }

// Process implements operators.Op; the armed call panics.
func (p *PanicOp) Process(port int, e event.Event) []event.Event {
	if atomic.AddInt64(p.count, 1) == p.After {
		panic(fmt.Sprintf("faultinject: injected operator panic on event %d", p.After))
	}
	return p.Inner.Process(port, e)
}

// Advance implements operators.Op.
func (p *PanicOp) Advance(t temporal.Time) []event.Event { return p.Inner.Advance(t) }

// OutputGuarantee implements operators.Op.
func (p *PanicOp) OutputGuarantee(t temporal.Time) temporal.Time { return p.Inner.OutputGuarantee(t) }

// StateSize implements operators.Op.
func (p *PanicOp) StateSize() int { return p.Inner.StateSize() }

// Clone implements operators.Op; clones share the trigger counter.
func (p *PanicOp) Clone() operators.Op {
	return &PanicOp{Inner: p.Inner.Clone(), After: p.After, count: p.count}
}

// AppendAdvanceKey forwards the shard-merge ordering hook when the inner
// operator provides it.
func (p *PanicOp) AppendAdvanceKey(dst []byte, e event.Event) []byte {
	if ao, ok := p.Inner.(operators.AdvanceOrdered); ok {
		return ao.AppendAdvanceKey(dst, e)
	}
	return dst
}

// StallOp wraps an operator and sleeps once, on the nth data event — the
// stalled-shard fault. Progress must still complete (finish drains), just
// late.
type StallOp struct {
	Inner operators.Op
	After int64
	Stall time.Duration
	count *int64
	slept *int64
}

// NewStallOp arms inner to stall once on the nth Process call.
func NewStallOp(inner operators.Op, after int, stall time.Duration) *StallOp {
	return &StallOp{Inner: inner, After: int64(after), Stall: stall, count: new(int64), slept: new(int64)}
}

// Stalls reports how many times the operator (or a clone) has slept.
func (s *StallOp) Stalls() int { return int(atomic.LoadInt64(s.slept)) }

// Name implements operators.Op.
func (s *StallOp) Name() string { return "faultinject.stall(" + s.Inner.Name() + ")" }

// Arity implements operators.Op.
func (s *StallOp) Arity() int { return s.Inner.Arity() }

// Process implements operators.Op; the armed call sleeps first.
func (s *StallOp) Process(port int, e event.Event) []event.Event {
	if atomic.AddInt64(s.count, 1) == s.After {
		time.Sleep(s.Stall)
		atomic.AddInt64(s.slept, 1)
	}
	return s.Inner.Process(port, e)
}

// Advance implements operators.Op.
func (s *StallOp) Advance(t temporal.Time) []event.Event { return s.Inner.Advance(t) }

// OutputGuarantee implements operators.Op.
func (s *StallOp) OutputGuarantee(t temporal.Time) temporal.Time { return s.Inner.OutputGuarantee(t) }

// StateSize implements operators.Op.
func (s *StallOp) StateSize() int { return s.Inner.StateSize() }

// Clone implements operators.Op; clones share the trigger and stall counters.
func (s *StallOp) Clone() operators.Op {
	return &StallOp{Inner: s.Inner.Clone(), After: s.After, Stall: s.Stall, count: s.count, slept: s.slept}
}

// AppendAdvanceKey forwards the shard-merge ordering hook when the inner
// operator provides it.
func (s *StallOp) AppendAdvanceKey(dst []byte, e event.Event) []byte {
	if ao, ok := s.Inner.(operators.AdvanceOrdered); ok {
		return ao.AppendAdvanceKey(dst, e)
	}
	return dst
}

// ---------------------------------------------------------------------------
// Channel-delivery chaos — duplicated and delayed physical delivery.

// DuplicatePunctuation re-delivers every nth punctuation item immediately
// after itself — the at-least-once transport fault. Guarantees are
// idempotent, so engine output must be unchanged.
func DuplicatePunctuation(s stream.Stream, every int) stream.Stream {
	if every <= 0 {
		every = 1
	}
	out := make(stream.Stream, 0, len(s)+len(s)/every+1)
	seen := 0
	for _, e := range s {
		out = append(out, e)
		if e.IsCTI() {
			seen++
			if seen%every == 0 {
				out = append(out, e)
			}
		}
	}
	return out
}

// DelayDelivery randomly holds back data items for up to maxHold positions
// (punctuation is never reordered past — it flushes the hold buffer),
// simulating a transport that delivers late without violating its
// guarantees. Deterministic for a given seed.
func DelayDelivery(s stream.Stream, seed int64, prob float64, maxHold int) stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	out := make(stream.Stream, 0, len(s))
	var held stream.Stream
	for _, e := range s {
		if e.IsCTI() {
			// A guarantee must not overtake the data it covers.
			out = append(out, held...)
			held = held[:0]
			out = append(out, e)
			continue
		}
		if rng.Float64() < prob && len(held) < maxHold {
			held = append(held, e)
			continue
		}
		out = append(out, e)
		if len(held) > 0 && rng.Float64() < 0.5 {
			out = append(out, held[0])
			held = held[1:]
		}
	}
	return append(out, held...)
}

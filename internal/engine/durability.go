// Durability: the engine-side half of the crash-safety story.
//
// CEDR's runtime state is a deterministic function of the applied input
// sequence — events, punctuation, registrations, and spec switches (the
// consistency monitor and matcher tree are pinned byte-exact by the
// differential suites). The durability layer therefore persists exactly
// that sequence: every applied record goes to the write-ahead log
// (internal/wal) before it is processed, and recovery is deterministic
// replay — a fresh engine re-applies the recovered records and arrives at
// the same operator state, the same output history (inserts, retractions,
// punctuation), byte for byte.
//
// A snapshot is the same idea made portable: the magic header, the
// watermark (sequence of the last applied record), wal.Magic and the
// journal — each applied record's WAL frame, encoded once and kept as
// bytes — so an engine born on an empty log snapshots exactly its log
// file. A snapshot is self-contained — restoring from it does not need
// the log file it was cut from, which is what permits WAL rotation:
// snapshot, then point the engine at a fresh empty log.
//
// Failure model: fail-stop. Once a WAL append or fsync fails, the engine
// refuses further input (input that cannot be made durable is not
// processed) and Err reports the failure. Batched fsync means a crash may
// lose the records since the last successful sync; recovery then replays
// the shorter durable prefix — still byte-identical to a run over exactly
// that prefix.
package engine

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/plan"
	"repro/internal/wal"
)

// snapMagic is the snapshot file header; the version byte changes with the
// record encoding.
const snapMagic = "CEDRSNP\x01"

// Journal chunks hold 64 KiB; one with under journalSlack free is full.
const journalChunk, journalSlack = 64 << 10, 1 << 10

// logAppend frames one record, with the next engine sequence number, onto
// the journal's tail chunk and hands the log those same bytes. The caller
// holds e.pushMu (so log order is apply order). It reports whether the
// record is durable; on a failure the engine fails stop (and never
// snapshots) and the caller must drop the input rather than process it.
func (e *Engine) logAppend(rec wal.Record) bool {
	if e.walErr != nil || e.closed {
		return false
	}
	rec.Seq = e.seq + 1
	if n := len(e.journal); n == 0 || cap(e.journal[n-1])-len(e.journal[n-1]) < journalSlack {
		e.journal = append(e.journal, make([]byte, 0, journalChunk))
	}
	tail := &e.journal[len(e.journal)-1]
	start := len(*tail)
	b, err := wal.AppendRecord(*tail, rec)
	if err == nil {
		*tail = b
		err = e.log.AppendFrame(b[start:])
	}
	if err != nil {
		e.walErr = fmt.Errorf("engine: wal append: %w", err)
		return false
	}
	e.seq = rec.Seq
	return true
}

// applyRecord re-applies one logged record during replay: the same code
// paths as live operation, minus the logging (e.log is still nil).
func (e *Engine) applyRecord(rec wal.Record) error {
	switch rec.Kind {
	case wal.KindEvent, wal.KindCTI:
		e.fanout(rec.Ev)
	case wal.KindRegister:
		p, err := plan.Prepare(rec.Src, plan.WithRegOpts(rec.Opts))
		if err != nil {
			return fmt.Errorf("engine: restore: recompile %q: %w", rec.Src, err)
		}
		e.register(p)
	case wal.KindSpec:
		qs := e.snapshot()
		if rec.Query < 0 || rec.Query >= len(qs) {
			return fmt.Errorf("engine: restore: spec switch for unknown query %d", rec.Query)
		}
		qs[rec.Query].setSpecApply(rec.Spec)
	case wal.KindUnregister:
		qs := e.snapshot()
		if rec.Query < 0 || rec.Query >= len(qs) {
			return fmt.Errorf("engine: restore: unregistration of unknown query %d", rec.Query)
		}
		qs[rec.Query].unregisterApply()
	case wal.KindFinish:
		e.mu.Lock()
		e.finished = true
		e.mu.Unlock()
		for _, ch := range e.chainsSnapshot() {
			ch.sh.finish()
		}
	default:
		return fmt.Errorf("engine: restore: unknown record kind %d", rec.Kind)
	}
	e.seq = rec.Seq
	return nil
}

// Restore builds a durable engine by deterministic replay: the snapshot's
// records first (if snap is non-nil), then every recovered log record past
// the snapshot watermark, then the log is attached for appending. With a
// nil snapshot and a fresh (empty) log this is simply how a durable engine
// is born. The recovered engine's queries, operator state, result
// histories, and metrics are byte-identical to the original engine's at
// the moment the last durable record was applied.
//
// The log must be opened by the caller (wal.Open / wal.New — opening
// recovers and truncates any torn tail) and is owned by the engine from
// here on: Close closes it; its recovered bytes become the journal.
func Restore(snap io.Reader, log *wal.Log, opts ...Option) (*Engine, error) {
	if log == nil {
		return nil, fmt.Errorf("engine: restore requires an open write-ahead log")
	}
	e := New(opts...)
	var err error
	if snap != nil {
		err = e.replaySnapshot(snap)
	}
	if err == nil {
		err = e.replay(log.TakeRecovered(), "log")
	}
	if err != nil {
		e.shutdownQueries()
		return nil, err
	}
	// Sharded chains process asynchronously; drain them so the restored
	// engine's visible results reflect the entire replayed history before
	// the caller sees it.
	e.Drain()
	e.log = log
	return e, nil
}

// replay applies the records of a WAL image past the engine's sequence
// number (the ones at or below it came from the snapshot) and keeps their
// frames, as they are, as the journal's next chunk. Every byte must decode.
func (e *Engine) replay(img []byte, what string) error {
	from := len(img)
	good, err := wal.Scan(img, func(rec wal.Record, start, _ int64) error {
		if rec.Seq <= e.seq {
			return nil
		}
		from = min(from, int(start))
		return e.applyRecord(rec)
	})
	if err == nil && good != int64(len(img)) {
		err = fmt.Errorf("engine: %s corrupt: %d of %d record bytes decode", what, good, len(img))
	}
	if err == nil && from < len(img) {
		e.journal = append(e.journal, img[from:len(img):len(img)])
	}
	return err
}

// replaySnapshot decodes and applies a snapshot. Unlike WAL recovery —
// where a torn tail is expected and silently truncated — a damaged
// snapshot is a hard error: it was written atomically, so corruption
// means the restore must not proceed on a silently shortened history.
func (e *Engine) replaySnapshot(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("engine: snapshot read: %w", err)
	}
	headLen := len(snapMagic) + 8
	if len(data) < headLen+len(wal.Magic) || string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("engine: not a CEDR snapshot")
	}
	watermark := binary.LittleEndian.Uint64(data[len(snapMagic):headLen])
	if err := e.replay(data[headLen:], "snapshot"); err != nil {
		return err
	}
	if e.seq != watermark {
		return fmt.Errorf("engine: snapshot watermark %d does not match record tail %d", watermark, e.seq)
	}
	return nil
}

// Snapshot writes the engine's durable state to w: header, watermark,
// wal.Magic and the journal verbatim — nothing is re-encoded. It refuses
// after a WAL failure. The log is synced first, so everything the snapshot
// claims is also on disk in the log; afterwards the WAL may be rotated
// (Restore from this snapshot plus a fresh empty log).
//
// Callers must not Push concurrently with Snapshot (it holds the engine's
// durable-append lock, so a concurrent Push would block, not corrupt).
func (e *Engine) Snapshot(w io.Writer) error {
	e.pushMu.Lock()
	defer e.pushMu.Unlock()
	if e.log == nil {
		return fmt.Errorf("engine: snapshot requires a durable engine (engine.Restore)")
	}
	if e.walErr != nil {
		return e.walErr
	}
	if err := e.log.Sync(); err != nil {
		e.walErr = fmt.Errorf("engine: wal sync: %w", err)
		return e.walErr
	}
	head := binary.LittleEndian.AppendUint64([]byte(snapMagic), e.seq)
	for _, b := range append([][]byte{append(head, wal.Magic...)}, e.journal...) {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("engine: snapshot write: %w", err)
		}
	}
	return nil
}

// Err reports the engine's durability failure, if any: the first WAL
// append, fsync, or close error. A failed engine drops further input
// (fail-stop) — the caller decides whether to crash, rotate the log, or
// surface the error. Always nil on a non-durable engine.
func (e *Engine) Err() error {
	e.pushMu.Lock()
	defer e.pushMu.Unlock()
	if e.walErr != nil {
		return e.walErr
	}
	if e.log != nil {
		return e.log.Err()
	}
	return nil
}

// Drain waits until every sharded chain has processed and delivered
// everything pushed so far; single-shard chains are synchronous, so after
// Drain returns the engine's visible results reflect every prior Push.
// The network server's sync verb is built on this: a client that drains
// has observed (or will observe, via its subscription queue) every output
// its pushes produced.
func (e *Engine) Drain() {
	for _, ch := range e.chainsSnapshot() {
		ch.sh.barrier()
	}
}

// SyncWAL flushes and fsyncs the write-ahead log — the durability point
// for everything pushed so far. A no-op on non-durable engines. On
// failure the engine fails stop, exactly as a batched-append sync failure
// would.
func (e *Engine) SyncWAL() error {
	e.pushMu.Lock()
	defer e.pushMu.Unlock()
	if e.walErr != nil {
		return e.walErr
	}
	if e.log == nil || e.closed {
		return nil
	}
	if err := e.log.Sync(); err != nil {
		e.walErr = fmt.Errorf("engine: wal sync: %w", err)
		return e.walErr
	}
	return nil
}

// Close shuts the engine down: further input is dropped, every sharded
// query's workers and merger exit, and the write-ahead log is synced and
// closed. Close is a process-exit, not a logical completion — it does not
// emit (or log) the queries' finish outputs, so a later Restore resumes
// exactly where the log ends. Call Finish first for a completed output
// history. Idempotent: the second and later calls are no-ops returning
// the same error.
func (e *Engine) Close() error {
	e.pushMu.Lock()
	if e.closed {
		e.pushMu.Unlock()
		return e.Err()
	}
	e.closed = true
	e.pushMu.Unlock()
	e.shutdownQueries()
	if e.log != nil {
		if cerr := e.log.Close(); cerr != nil {
			e.pushMu.Lock()
			if e.walErr == nil {
				e.walErr = fmt.Errorf("engine: wal close: %w", cerr)
			}
			e.pushMu.Unlock()
		}
	}
	return e.Err()
}

// shutdownQueries stops every chain's goroutines without emitting finish
// outputs (see chain.shutdown) — they were never logged, so emitting them
// would diverge from what recovery replays.
func (e *Engine) shutdownQueries() {
	for _, ch := range e.chainsSnapshot() {
		ch.shutdown()
	}
}

package wal

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// File is the storage a Log writes through. *os.File satisfies it; the
// fault-injection harness wraps one to inject fsync failures and torn
// crash-point writes.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// LogOption adjusts Log construction.
type LogOption func(*Log)

// SyncEvery sets the fsync batching policy: appended records are flushed
// and fsynced once n records have accumulated (and on explicit Sync or
// Close). n == 1 syncs every append; n <= 0 means no automatic syncing
// (explicit Sync/Close only). The default is 32. Whatever n, at most
// writeThrough bytes wait in memory: beyond that Append writes them to the
// file without syncing, so the durability point is still the fsync.
func SyncEvery(n int) LogOption {
	return func(l *Log) { l.every = n }
}

// writeThrough bounds the encoded bytes a Log buffers before it writes them
// to the file; writing is not syncing.
const writeThrough = 64 << 10

// Log is an open write-ahead log: the records recovered from the existing
// file plus an append head with batched fsync. All methods are safe for
// concurrent use.
type Log struct {
	mu        sync.Mutex
	f         File
	recovered []byte // the file's intact prefix, until TakeRecovered
	lastSeq   uint64
	buf       []byte // encoded records not yet written to the file (< writeThrough bytes)
	pending   int    // records in buf
	every     int
	err       error // first write/sync failure; the log fails stop
	closed    bool
	syncs     int // fsync count, for tests and the append benchmark
}

// Open opens (or creates) the WAL at path, recovering its records and
// truncating any torn tail, and positions the log for appending.
func Open(path string, opts ...LogOption) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l, err := New(f, opts...)
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// New builds a Log over an already-open file: it keeps the bytes of every
// intact record, undecoded (TakeRecovered), truncates the file at the first
// torn or corrupt one, and leaves the file positioned for appending. A
// zero-length file gets the magic header on the first sync.
func New(f File, opts ...LogOption) (*Log, error) {
	l := &Log{f: f, every: 32}
	for _, o := range opts {
		o(l)
	}
	size, err := f.Seek(0, io.SeekEnd)
	img := make([]byte, max(size, 0))
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err == nil {
		_, err = io.ReadFull(f, img)
	}
	if err != nil {
		return nil, err
	}
	good, err := scan(img, nil, func(rec Record, _, _ int64) error {
		l.lastSeq = rec.Seq
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.recovered = img[:good:good]
	if good == 0 {
		// Fresh (or torn-at-magic) file: start over with a clean header.
		if err := f.Truncate(0); err != nil {
			return nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		l.buf = append(l.buf, Magic...)
		return l, nil
	}
	if err := f.Truncate(good); err != nil {
		return nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return nil, err
	}
	return l, nil
}

// TakeRecovered hands over the file's bytes read back at open time — the
// magic header and every intact record, for Scan; empty for a fresh log —
// and keeps no reference: a second call returns nil.
func (l *Log) TakeRecovered() (img []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	img, l.recovered = l.recovered, nil
	return img
}

// LastSeq returns the highest sequence number in the log (recovered or
// appended); 0 for an empty log.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Err returns the log's sticky failure, if a write or fsync has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Syncs returns the number of fsyncs issued, for batching tests.
func (l *Log) Syncs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Append encodes one record straight onto the write buffer, flushing +
// fsyncing per the batching policy, and returns the record's sequence
// number. A zero Seq is auto-assigned (last + 1); a non-zero Seq must be
// strictly increasing. After any write or sync failure the log fails
// stop: every subsequent Append returns the original error.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, fmt.Errorf("wal: append to closed log")
	}
	if rec.Seq == 0 {
		rec.Seq = l.lastSeq + 1
	} else if rec.Seq <= l.lastSeq {
		return 0, fmt.Errorf("wal: sequence %d not after %d", rec.Seq, l.lastSeq)
	}
	var err error
	if l.buf, err = AppendRecord(l.buf, rec); err != nil {
		return 0, err // encoding error: AppendRecord cut the buffer back; the log is still healthy
	}
	l.lastSeq = rec.Seq
	l.pending++
	sync := l.every > 0 && l.pending >= l.every
	if (sync || len(l.buf) >= writeThrough) && l.flushLocked(sync) != nil {
		return 0, l.err
	}
	return rec.Seq, nil
}

// CopyTo syncs the log and copies the file from offset from to its end to
// w. A failed read or write fails only the copy; a log that cannot seek
// back to its end no longer knows where to append, and fails stop.
func (l *Log) CopyTo(w io.Writer, from int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: copy from closed log")
	}
	if l.err != nil || l.flushLocked(true) != nil {
		return l.err
	}
	end, err := l.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	if _, err = l.f.Seek(from, io.SeekStart); err == nil {
		_, err = io.CopyN(w, l.f, end-from)
	}
	if _, serr := l.f.Seek(end, io.SeekStart); serr != nil {
		l.err = fmt.Errorf("wal: seek back to the end: %w", serr)
		return l.err
	}
	if err != nil {
		return fmt.Errorf("wal: copy: %w", err)
	}
	return nil
}

// Sync flushes buffered records to the file and fsyncs it. The durability
// point: records appended before a successful Sync survive a crash.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.flushLocked(true)
}

// flushLocked writes the buffered records to the file, then fsyncs it if
// asked. A buffer one huge record grew is dropped rather than kept.
func (l *Log) flushLocked(fsync bool) error {
	if len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			l.err = fmt.Errorf("wal: write: %w", err)
			return l.err
		}
		if l.buf = l.buf[:0]; cap(l.buf) > 2*writeThrough {
			l.buf = nil
		}
	}
	if !fsync || l.pending == 0 && l.syncs > 0 {
		return nil // write only, or nothing new since the last sync
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return l.err
	}
	l.syncs++
	l.pending = 0
	return nil
}

// Close syncs and closes the file. Idempotent: the second and later calls
// return the first call's result.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	l.closed = true
	if l.err == nil {
		l.flushLocked(true)
	}
	if cerr := l.f.Close(); cerr != nil && l.err == nil {
		l.err = cerr
	}
	return l.err
}

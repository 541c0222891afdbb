//go:build !race

package wal_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// Allocation ceilings of the log's hot paths. (Skipped under -race:
// instrumentation changes allocation counts.)

func TestAllocsLogAppend(t *testing.T) {
	l, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.SyncEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := fleetRecord(1)
	// Past two write-throughs: the buffer has reached its steady capacity.
	for range 2 * (64 << 10) / 64 {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("wal.Log.Append of an event record: %.2f allocs/record amortized (ceiling 0)", allocs)
	if allocs > 0 {
		t.Fatalf("Log.Append allocates %.2f objects per event record; encoding is no longer in place", allocs)
	}
}

func TestAllocsScan(t *testing.T) {
	const n = 2000
	path := filepath.Join(t.TempDir(), "wal")
	recs := make([]wal.Record, n)
	for i := range recs {
		recs[i] = fleetRecord(i)
	}
	writeLog(t, path, recs)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	perScan := testing.AllocsPerRun(10, func() {
		if _, err := wal.Scan(bytes.NewReader(img), nil); err != nil {
			t.Fatal(err)
		}
	})
	// The reader, the tables, the payload buffer, the header array; then
	// the first copy of each distinct string — the type, the name, and
	// eight values with their boxes — and the first two of each of the
	// eight payloads (the second is kept), a map of two objects each.
	// Nothing grows with the record count.
	const ceiling = 4 + 2 + 2*8 + 2*2*8
	t.Logf("wal.Scan over %d repeated records: %.0f allocs per scan (ceiling %d)", n, perScan, ceiling)
	if perScan > ceiling {
		t.Fatalf("scanning %d repeated records allocates %.0f objects, above the pinned per-scan ceiling %d; the payload buffer or the shared strings and payloads are no longer reused",
			n, perScan, ceiling)
	}
}

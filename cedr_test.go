package cedr

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/workload"
)

const missedRestart = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL)
SC(each, consume)
CONSISTENCY middle`

func TestPublicAPIQuickstart(t *testing.T) {
	sys := New()
	q, err := sys.Register(missedRestart)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "MissedRestart" {
		t.Errorf("name = %q", q.Name())
	}
	src, expected := workload.MachineEvents(workload.DefaultMachines())
	sys.Run(Deliver(src, OrderedDelivery(MustDuration(t, "10 minutes"))))
	if got := len(q.Alerts()); got != expected {
		t.Errorf("alerts = %d, want %d", got, expected)
	}
	if q.Explain() == "" {
		t.Error("Explain empty")
	}
	if len(q.Metrics()) == 0 {
		t.Error("no metrics")
	}
}

func MustDuration(t *testing.T, s string) Duration {
	t.Helper()
	d, err := ParseDuration(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPublicAPIConsistencyOverride(t *testing.T) {
	sys := New()
	q, err := sys.Register(missedRestart, WithSpec(Strong()))
	if err != nil {
		t.Fatal(err)
	}
	src, expected := workload.MachineEvents(workload.DefaultMachines())
	disordered := Deliver(src, DisorderedDelivery(7,
		MustDuration(t, "10 minutes"), MustDuration(t, "3 minutes"), 0.3))
	sys.Run(disordered)
	if got := len(q.Alerts()); got != expected {
		t.Errorf("strong alerts under disorder = %d, want %d", got, expected)
	}
	// Strong never compensates.
	for _, m := range q.Metrics() {
		if m.Compensations != 0 {
			t.Errorf("strong emitted compensations: %+v", m)
		}
	}
}

func TestPublicAPIMiddleRepairsUnderDisorder(t *testing.T) {
	sys := New()
	q, err := sys.Register(missedRestart, WithSpec(Middle()))
	if err != nil {
		t.Fatal(err)
	}
	src, expected := workload.MachineEvents(workload.DefaultMachines())
	disordered := Deliver(src, DisorderedDelivery(7,
		MustDuration(t, "10 minutes"), MustDuration(t, "3 minutes"), 0.3))
	sys.Run(disordered)
	if got := len(q.Alerts()); got != expected {
		t.Errorf("middle alerts under disorder = %d, want %d", got, expected)
	}
}

func TestPublicAPIRetraction(t *testing.T) {
	sys := New()
	q, err := sys.Register(`EVENT Hot WHEN ANY(READING r) WHERE {r.temp > 90}`)
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	q.Subscribe(func(e Event) {
		if !e.IsCTI() {
			seen++
		}
	})
	sys.Push(NewEvent(1, "READING", 10, Forever, Payload{"temp": int64(95)}))
	sys.Finish()
	if len(q.Alerts()) != 1 || seen == 0 {
		t.Errorf("alerts = %d, callbacks = %d", len(q.Alerts()), seen)
	}
}

func TestPublicAPIBadQuery(t *testing.T) {
	sys := New()
	if _, err := sys.Register("EVENT nope"); err == nil {
		t.Error("bad query accepted")
	}
}

// TestPublicAPIDurability exercises the crash-safety surface end to end:
// a durable system is run partway, "crashes" (the process state is
// dropped without Close), and re-Opening the same log recovers the
// queries, the emitted history, and accepts the rest of the input —
// converging on the same alerts as an uninterrupted run.
func TestPublicAPIDurability(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "cedr.wal")

	src, expected := workload.MachineEvents(workload.DefaultMachines())
	in := Deliver(src, OrderedDelivery(MustDuration(t, "10 minutes")))
	half := len(in) / 2

	sys, err := Open(walPath, WithSyncEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Register(missedRestart)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range in[:half] {
		sys.Push(ev)
	}
	if sys.Err() != nil {
		t.Fatal(sys.Err())
	}
	emitted := len(q.Results())
	// Crash: no Finish, no Close — the log is all that survives.

	sys2, err := Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	qs := sys2.Queries()
	if len(qs) != 1 {
		t.Fatalf("recovered %d queries, want 1", len(qs))
	}
	rq := qs[0]
	if got := len(rq.Results()); got != emitted {
		t.Fatalf("recovered %d emitted items, want %d", got, emitted)
	}
	for _, ev := range in[half:] {
		sys2.Push(ev)
	}
	sys2.Finish()
	if got := len(rq.Alerts()); got != expected {
		t.Fatalf("recovered run: %d alerts, want %d", got, expected)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
}

// TestPublicAPISnapshotRotation: Snapshot plus a fresh log resumes without
// the original WAL.
func TestPublicAPISnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	src, expected := workload.MachineEvents(workload.DefaultMachines())
	in := Deliver(src, OrderedDelivery(MustDuration(t, "10 minutes")))
	half := len(in) / 2

	sys, err := Open(filepath.Join(dir, "old.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Register(missedRestart); err != nil {
		t.Fatal(err)
	}
	for _, ev := range in[:half] {
		sys.Push(ev)
	}
	var snap bytes.Buffer
	if err := sys.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := Restore(&snap, filepath.Join(dir, "new.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	for _, ev := range in[half:] {
		sys2.Push(ev)
	}
	sys2.Finish()
	rq := sys2.Queries()[0]
	if got := len(rq.Alerts()); got != expected {
		t.Fatalf("rotated run: %d alerts, want %d", got, expected)
	}
}

// TestPublicAPIQuarantine: a panicking subscriber must not take the
// process down; the query reports the failure and its sibling is
// unaffected.
func TestPublicAPIQuarantine(t *testing.T) {
	sys := New()
	q, err := sys.Register(missedRestart)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := sys.Register(missedRestart)
	if err != nil {
		t.Fatal(err)
	}
	q.Subscribe(func(Event) { panic("bad subscriber") })
	src, expected := workload.MachineEvents(workload.DefaultMachines())
	sys.Run(Deliver(src, OrderedDelivery(MustDuration(t, "10 minutes"))))
	if q.Err() == nil {
		t.Fatal("panicking query reports no error")
	}
	if sibling.Err() != nil {
		t.Fatal(sibling.Err())
	}
	if got := len(sibling.Alerts()); got != expected {
		t.Fatalf("sibling: %d alerts, want %d", got, expected)
	}
}

const missedRestartTmpl = `
EVENT MissedRestart
WHEN UNLESS(SEQUENCE(INSTALL x, SHUTDOWN AS y, 12 hours),
            RESTART AS z, 5 minutes)
WHERE CorrelationKey(Machine_Id, EQUAL) AND [Machine_Id Equal $m]
SC(each, consume)
CONSISTENCY middle`

// TestPublicAPIFabricTemplates: a fleet of per-machine template instances
// detects exactly the alerts one fleet-wide query would; identical
// instances share a chain, WithoutSharing opts out, Unregister removes one
// endpoint without disturbing its siblings, and the deprecated WithRouting
// changes nothing.
func TestPublicAPIFabricTemplates(t *testing.T) {
	register := func(sys *System) []*Query {
		var fleet []*Query
		for m := 0; m < 10; m++ {
			q, err := sys.Register(missedRestartTmpl,
				WithTemplate(Payload{"m": workload.MachineID(m)}))
			if err != nil {
				t.Fatal(err)
			}
			fleet = append(fleet, q)
		}
		return fleet
	}
	sys := New()
	fleet := register(sys)
	twin, err := sys.Register(missedRestartTmpl, WithTemplate(Payload{"m": "m000"}))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := sys.Register(missedRestartTmpl,
		WithTemplate(Payload{"m": "m000"}), WithoutSharing())
	if err != nil {
		t.Fatal(err)
	}
	if !twin.Shared() {
		t.Error("identical template instance did not share")
	}
	if solo.Shared() {
		t.Error("WithoutSharing instance shared anyway")
	}

	src, expected := workload.MachineEvents(workload.DefaultMachines())
	in := Deliver(src, OrderedDelivery(MustDuration(t, "10 minutes")))
	sys.Run(in)

	legacy := New(WithRouting())
	legacyFleet := register(legacy)
	legacy.Run(in)
	for m, q := range fleet {
		if !reflect.DeepEqual(legacyFleet[m].Results(), q.Results()) {
			t.Errorf("machine %d: the deprecated routing option changed the results", m)
		}
	}

	total := 0
	for _, q := range fleet {
		total += len(q.Alerts())
	}
	if total != expected {
		t.Errorf("fleet detected %d alerts, fleet-wide query detects %d", total, expected)
	}
	if got, want := len(twin.Alerts()), len(fleet[0].Alerts()); got != want {
		t.Errorf("shared twin: %d alerts, sibling has %d", got, want)
	}
	if got, want := len(solo.Alerts()), len(fleet[0].Alerts()); got != want {
		t.Errorf("unshared copy: %d alerts, shared runs have %d", got, want)
	}

	before := len(sys.Queries())
	twin.Unregister()
	if got := len(sys.Queries()); got != before-1 {
		t.Errorf("Queries() = %d after Unregister, want %d", got, before-1)
	}
	if fleet[0].Err() != nil {
		t.Fatal(fleet[0].Err())
	}
	if sys.Err() != nil {
		t.Fatal(sys.Err())
	}
}

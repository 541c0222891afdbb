package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	cedr "repro"
	"repro/internal/eventio"
)

// Application-time units (one tick is one millisecond).
const (
	second = cedr.Duration(1000)
	minute = 60 * second
	hour   = 60 * minute
)

// Generator constants: the machine-lifecycle telemetry of the paper's §3.1.
const (
	minUptime       = minute // INSTALL to SHUTDOWN: U[minUptime, maxUptime)
	maxUptime       = 2 * hour
	restartDeadline = 5 * minute  // the query's UNLESS window
	lateRestart     = 20 * minute // a missed restart: one expected alert
	missShare       = 0.3         // of all cycles
	cycleGap        = 30 * minute
	ctiPeriod       = 10 * minute
	jitter          = 15 * second // disordered: arrival = sync + U[0, jitter)
	stragglerDelay  = 60 * second // ... plus this, with stragglerProb
	stragglerProb   = 0.05
)

// genParams names the stream characteristics a workload declares.
type genParams struct {
	Machines   int
	Cycles     int
	Disordered bool
}

// input is everything the program under test receives, plus what the
// benchmark needs to check its output.
type input struct {
	Items    cedr.Stream // arrival order, punctuated
	CSV      []byte      // Items rendered by eventio.FormatCSVLine, one per line
	SHA256   string      // of CSV: two commits provably saw the same bytes
	Expected int         // alerts the §3.1 query must raise
	Events   int
	CTIs     int
}

// rng is splitmix64: the generator must not depend on the Go release's
// math/rand stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a uniform value in [0, n).
func (r *rng) below(n cedr.Duration) cedr.Duration {
	return cedr.Duration(r.next() % uint64(n))
}

// shuffle is Fisher-Yates over n elements.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, int(r.next()%uint64(i+1)))
	}
}

func (r *rng) chance(p float64) bool {
	return float64(r.next()>>11)/(1<<53) < p
}

// machineID is the Machine_Id payload value of machine m; template
// bindings must use the same spelling.
func machineID(m int) string { return fmt.Sprintf("m%03d", m) }

// generate builds the stream for one seed. The logical stream depends only
// on (seed, Machines, Cycles); Disordered draws the arrival delays from a
// second generator, so an ordered and a disordered rendering of one seed
// carry the same events.
func generate(seed int64, p genParams) (*input, error) {
	type ev struct {
		typ     string
		machine int
		sync    cedr.Time
		arrival cedr.Time
		id      cedr.ID
	}
	// The declared characteristics (miss share, uptime distribution) hold
	// exactly in every stream, at positions the seed picks: drawing them
	// independently per cycle would make streams of different seeds differ
	// in length and in how many machines are still live at the end, which
	// is seed-to-seed variance in every metric and information in none.
	logical := rng{s: uint64(seed)}
	expected := int(missShare*float64(p.Machines*p.Cycles) + 0.5)
	misses := make([]int, p.Machines) // per machine: an equal share, the remainder dealt out
	for i, m := 0, 0; i < expected; i, m = i+1, (m+1)%p.Machines {
		misses[m]++
	}
	logical.shuffle(len(misses), func(i, j int) { misses[i], misses[j] = misses[j], misses[i] })
	var evs []ev
	miss := make([]bool, p.Cycles)
	stratum := make([]int, p.Cycles)
	for m := 0; m < p.Machines; m++ {
		for c := range miss {
			miss[c] = c < misses[m]
			stratum[c] = c
		}
		logical.shuffle(p.Cycles, func(i, j int) { miss[i], miss[j] = miss[j], miss[i] })
		logical.shuffle(p.Cycles, func(i, j int) { stratum[i], stratum[j] = stratum[j], stratum[i] })
		at := cedr.Time(0).Add(cedr.Duration(m) * minute)
		for c := 0; c < p.Cycles; c++ {
			evs = append(evs, ev{typ: "INSTALL", machine: m, sync: at})
			// Uptime U[1 min, 2 h): one draw from each of Cycles equal strata.
			width := (maxUptime - minUptime) / cedr.Duration(p.Cycles)
			at = at.Add(minUptime + cedr.Duration(stratum[c])*width + logical.below(width))
			evs = append(evs, ev{typ: "SHUTDOWN", machine: m, sync: at})
			if miss[c] {
				at = at.Add(lateRestart)
			} else {
				at = at.Add(1 + logical.below(restartDeadline-1))
			}
			evs = append(evs, ev{typ: "RESTART", machine: m, sync: at})
			at = at.Add(cycleGap)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].sync < evs[j].sync })
	delays := rng{s: uint64(seed) ^ 0xd15c0de5}
	for i := range evs {
		evs[i].id = cedr.ID(i + 1)
		evs[i].arrival = evs[i].sync
		if p.Disordered {
			d := delays.below(jitter)
			if delays.chance(stragglerProb) {
				d += stragglerDelay
			}
			evs[i].arrival = evs[i].sync.Add(d)
		}
	}

	// A sync point t goes right after the last-arriving event with
	// sync < t, so no punctuation is ever violated. lastCovered[k] is that
	// event's arrival position for the k-th sync point.
	order := make([]int, len(evs)) // arrival position -> index in evs
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return evs[order[i]].arrival < evs[order[j]].arrival })
	pos := make([]int, len(evs))
	for at, i := range order {
		pos[i] = at
	}
	var ctis []cedr.Time
	var lastCovered []int
	covered, next := -1, 0
	for t := cedr.Time(0).Add(ctiPeriod); ; t = t.Add(ctiPeriod) {
		for next < len(evs) && evs[next].sync < t {
			if pos[next] > covered {
				covered = pos[next]
			}
			next++
		}
		ctis = append(ctis, t)
		lastCovered = append(lastCovered, covered)
		if next == len(evs) {
			break
		}
	}

	in := &input{Expected: expected, Events: len(evs), CTIs: len(ctis)}
	k := 0
	emitCTIs := func(at int) {
		for ; k < len(ctis) && lastCovered[k] == at; k++ {
			in.Items = append(in.Items, cedr.NewCTI(ctis[k]))
		}
	}
	emitCTIs(-1)
	for at, i := range order {
		e := evs[i]
		in.Items = append(in.Items, cedr.NewEvent(e.id, e.typ, e.sync, cedr.Forever,
			cedr.Payload{"Machine_Id": machineID(e.machine)}))
		emitCTIs(at)
	}

	var csv strings.Builder
	for _, it := range in.Items {
		line, err := eventio.FormatCSVLine(it)
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		csv.WriteString(line)
		csv.WriteByte('\n')
	}
	in.CSV = []byte(csv.String())
	sum := sha256.Sum256(in.CSV)
	in.SHA256 = hex.EncodeToString(sum[:])
	return in, nil
}

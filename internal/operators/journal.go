package operators

import (
	"slices"
	"sync"

	"repro/internal/event"
	"repro/internal/temporal"
)

// versions is the ascending list of a Versioned operator's live version
// handles, each carrying what the implementation needs to restore it (a
// journal position, an operator copy). Handles are serial numbers that are
// never reissued, so a version invalidated by a deeper Rollback or by
// Compact stays invalid for good.
type versions[T any] struct {
	ids  []uint64
	vals []T
	next uint64
}

func (vs *versions[T]) push(val T) Version {
	vs.next++
	vs.ids = append(vs.ids, vs.next)
	vs.vals = append(vs.vals, val)
	return Version{Pos: vs.next}
}

// find returns the index of v among the live versions, -1 when v was
// invalidated.
func (vs *versions[T]) find(v Version) int {
	i, ok := slices.BinarySearch(vs.ids, v.Pos)
	if !ok {
		return -1
	}
	return i
}

// cut removes the versions [lo, hi).
func (vs *versions[T]) cut(lo, hi int) {
	vs.ids = slices.Delete(vs.ids, lo, hi)
	vs.vals = slices.Delete(vs.vals, lo, hi)
}

// Record is one inverse record of a Journal.
type Record interface {
	// Undo reverses the mutation the record was journaled before.
	Undo()
	// Release is called when Compact drops the record: no retained version
	// can undo it any more, so whatever state only its Undo needed may go.
	Release()
}

// Journal is the one undo log behind every journaling operator's Versioned
// implementation: while it is on, every mutation of the operator's durable
// state first appends its exact inverse as an R. Mark is then an O(1)
// append, Rollback undoes records LIFO back to it, Compact drops the
// history below it. Journaling turns on at the first Mark, so a standalone
// operator (and every Clone, which starts with a zero journal) pays one
// predictable branch per mutation. Derived caches and scratch buffers are
// not state and are never journaled. State an operator does not journal per
// mutation (a few scalars) it hands to Mark as a snapshot S, which Rollback
// returns for the operator to restore.
//
// Records sit at absolute positions in chunks of chunkLen, the first chunk
// holding position lo, so a mark keeps its position for good and nothing is
// ever copied down. Every slot outside the live records [lo, end) is zero;
// a chunk that Compact or Rollback vacates goes back to a process-wide pool
// of its record type for any journal to take, and a journal whose every
// record a Compact dropped holds no chunk.
//
// Versions are serial numbers that are never reissued, so a version a
// deeper Rollback or a Compact invalidated stays invalid for good.
type Journal[R Record, S any] struct {
	on      bool
	chunks  []*[chunkLen]R    // chunks[k] holds positions (lo/chunkLen+k)·chunkLen on
	lo, end int               // the live records' positions, oldest first
	marks   versions[mark[S]] // live versions
}

const chunkLen = 32

type mark[S any] struct {
	at   int // end at mark time
	snap S
}

// chunkPools holds one sync.Pool of zeroed chunks per record type, keyed
// by a nil *[chunkLen]R.
var chunkPools sync.Map

func chunkPool[R any]() *sync.Pool {
	key := any((*[chunkLen]R)(nil))
	p, ok := chunkPools.Load(key)
	if !ok {
		p, _ = chunkPools.LoadOrStore(key, &sync.Pool{New: func() any { return new([chunkLen]R) }})
	}
	return p.(*sync.Pool)
}

// On reports whether journaling is on: a mutation appends its inverse only
// then.
func (j *Journal[R, S]) On() bool { return j.on }

// Len is the number of live records: those a retained version can undo.
func (j *Journal[R, S]) Len() int { return j.end - j.lo }

// Add appends the inverse of the mutation about to happen.
func (j *Journal[R, S]) Add(r R) {
	k := j.end/chunkLen - j.lo/chunkLen
	if k == len(j.chunks) {
		j.chunks = append(j.chunks, chunkPool[R]().Get().(*[chunkLen]R))
	}
	j.chunks[k][j.end%chunkLen] = r
	j.end++
}

// Mark returns a version of the current state, snap being the part of it
// the operator does not journal, and turns journaling on.
func (j *Journal[R, S]) Mark(snap S) Version {
	j.on = true
	return j.marks.push(mark[S]{j.end, snap})
}

// Rollback undoes every mutation since v, in O(mutations since v), and
// returns v's snapshot. v stays valid; every later version is invalidated.
// It reports false, changing nothing, when v is no longer valid.
func (j *Journal[R, S]) Rollback(v Version) (snap S, ok bool) {
	i := j.marks.find(v)
	if i < 0 {
		return snap, false
	}
	m := j.marks.vals[i]
	for ; j.end > m.at; j.end-- {
		r := &j.chunks[(j.end-1)/chunkLen-j.lo/chunkLen][(j.end-1)%chunkLen]
		(*r).Undo()
		*r = *new(R)
	}
	keep := (j.end+chunkLen-1)/chunkLen - j.lo/chunkLen // the chunks below end, if a Compact left any
	j.free(min(keep, len(j.chunks)), len(j.chunks))
	j.marks.cut(i+1, len(j.marks.ids))
	return m.snap, true
}

// Compact drops the history below v, releasing each dropped record, in
// O(records dropped). Versions before v are invalidated.
func (j *Journal[R, S]) Compact(v Version) {
	i := j.marks.find(v)
	if i <= 0 {
		return
	}
	at := j.marks.vals[i].at
	for p := j.lo; p < at; p++ {
		r := &j.chunks[p/chunkLen-j.lo/chunkLen][p%chunkLen]
		(*r).Release()
		*r = *new(R)
	}
	n := at/chunkLen - j.lo/chunkLen // the chunks wholly below at
	if at == j.end {
		n = len(j.chunks)
	}
	j.free(0, n)
	j.lo = at
	j.marks.cut(0, i)
}

// free hands chunks [from, to), all zero, back to the pool.
func (j *Journal[R, S]) free(from, to int) {
	pool := chunkPool[R]()
	for _, c := range j.chunks[from:to] {
		pool.Put(c)
	}
	j.chunks = slices.Delete(j.chunks, from, to)
}

// journal is a Journal whose operator journals all of its state: it needs
// no snapshot. Operators embed one, which promotes the Versioned methods.
type journal[R Record] struct {
	log Journal[R, struct{}]
}

// Mark implements Versioned.
func (j *journal[R]) Mark() Version { return j.log.Mark(struct{}{}) }

// Rollback implements Versioned.
func (j *journal[R]) Rollback(v Version) bool {
	_, ok := j.log.Rollback(v)
	return ok
}

// Compact implements Versioned.
func (j *journal[R]) Compact(v Version) { j.log.Compact(v) }

// mapRec is the inverse of one set or delete on a map[event.ID]V, or (m ==
// nil) of one assignment to the operator's frontier.
type mapRec[V any] struct {
	m   map[event.ID]V
	id  event.ID
	old V
	had bool
	p   *temporal.Time
	t   temporal.Time
}

func (r mapRec[V]) Release() {}

func (r mapRec[V]) Undo() {
	switch {
	case r.m == nil:
		*r.p = r.t
	case r.had:
		r.m[r.id] = r.old
	default:
		delete(r.m, r.id)
	}
}

// mapJournal journals operators whose state is maps keyed by event ID plus
// a frontier: all their mutations go through set, del and setTime.
type mapJournal[V any] struct {
	journal[mapRec[V]]
}

func (j *mapJournal[V]) set(m map[event.ID]V, id event.ID, v V) {
	if j.log.on {
		old, had := m[id]
		j.log.Add(mapRec[V]{m: m, id: id, old: old, had: had})
	}
	m[id] = v
}

func (j *mapJournal[V]) del(m map[event.ID]V, id event.ID) {
	if j.log.on {
		if old, had := m[id]; had {
			j.log.Add(mapRec[V]{m: m, id: id, old: old, had: true})
		}
	}
	delete(m, id)
}

func (j *mapJournal[V]) setTime(p *temporal.Time, t temporal.Time) {
	if j.log.on {
		j.log.Add(mapRec[V]{p: p, t: *p})
	}
	*p = t
}

// AsVersioned gives any operator the Versioned protocol, so a caller needs
// one checkpoint strategy only. An operator that journals its own state is
// returned as is; a Stateless one has nothing to version; everything else —
// reference evaluators, test doubles, any operator driven straight through
// a monitor — gets a clone-backed fallback whose Mark costs an O(state) Clone.
func AsVersioned(op Op) Versioned {
	if v, ok := op.(Versioned); ok {
		return v
	}
	if _, ok := op.(Stateless); ok {
		return statelessVersioned{op}
	}
	return &cloneVersioned{Op: op}
}

// statelessVersioned: with no state, every version is the current one, so
// Rollback always succeeds — the one implementation no version of which can
// ever be invalidated.
type statelessVersioned struct{ Op }

func (statelessVersioned) Mark() Version         { return Version{} }
func (statelessVersioned) Rollback(Version) bool { return true }
func (statelessVersioned) Compact(Version)       {}

// cloneVersioned keeps one operator copy per live version. The embedded Op
// is the live operator; Rollback swaps in a clone of the marked copy, so
// the copy itself stays a valid target.
type cloneVersioned struct {
	Op
	copies versions[Op]
}

func (c *cloneVersioned) Mark() Version { return c.copies.push(c.Op.Clone()) }

func (c *cloneVersioned) Rollback(v Version) bool {
	i := c.copies.find(v)
	if i < 0 {
		return false
	}
	c.Op = c.copies.vals[i].Clone()
	c.copies.cut(i+1, len(c.copies.ids))
	return true
}

func (c *cloneVersioned) Compact(v Version) {
	if i := c.copies.find(v); i > 0 {
		c.copies.cut(0, i)
	}
}

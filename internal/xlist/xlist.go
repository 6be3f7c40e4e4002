// Package xlist implements the two bookkeeping structures at the heart of
// S-DSO's lookahead machinery (paper §3.1, Figures 2 and 3):
//
//   - The exchange-list: a time-ordered list of (exchange-time, process)
//     pairs recording when the local process must next exchange updates
//     with each remote process. "The list is ordered 'earliest
//     exchange-time first' and not by process IDs."
//
//   - The slotted buffer: one slot per remote process holding the object
//     diffs that process has not yet been sent. "S-DSO can be tuned to
//     merge multiple diffs to the same object into one diff since the last
//     exchange with a given process."
package xlist

import (
	"fmt"
	"math"
	"slices"

	"sdso/internal/diff"
	"sdso/internal/store"
)

// compareEntries orders entries by (time, proc) — the exchange-list order.
// A single named comparator avoids re-allocating a closure (and its capture)
// on every Due/Entries call inside the protocols' exchange loops.
func compareEntries(a, b Entry) int {
	switch {
	case a.Time != b.Time:
		if a.Time < b.Time {
			return -1
		}
		return 1
	case a.Proc != b.Proc:
		if a.Proc < b.Proc {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// Entry is one (exchange-time, process) pair.
type Entry struct {
	Time int64
	Proc int
}

// List is the exchange-list: at most one pending exchange time per remote
// process, ordered earliest-first (ties broken by process ID for
// determinism). Process IDs are dense small integers, so the list is a
// table indexed by process; reading it in order walks the table, which
// yields the entries already sorted whenever they share one exchange time
// (every BSYNC tick).
type List struct {
	at []Entry // indexed by process; Proc is -1 when unscheduled
	n  int
}

// NewList returns an empty exchange-list.
func NewList() *List { return &List{} }

// Set schedules (or reschedules) the exchange time for proc.
func (l *List) Set(proc int, t int64) {
	for len(l.at) <= proc {
		l.at = append(l.at, Entry{Proc: -1})
	}
	if l.at[proc].Proc < 0 {
		l.n++
	}
	l.at[proc] = Entry{Time: t, Proc: proc}
}

// Remove drops proc from the list (e.g., the process announced DONE).
func (l *List) Remove(proc int) {
	if _, ok := l.Time(proc); ok {
		l.at[proc].Proc = -1
		l.n--
	}
}

// Time returns proc's scheduled exchange time.
func (l *List) Time(proc int) (int64, bool) {
	if proc < 0 || proc >= len(l.at) || l.at[proc].Proc < 0 {
		return 0, false
	}
	return l.at[proc].Time, true
}

// Len returns the number of scheduled processes.
func (l *List) Len() int { return l.n }

// Peek returns the earliest entry without removing it.
func (l *List) Peek() (Entry, bool) {
	if es := l.Entries(); len(es) > 0 {
		return es[0], true
	}
	return Entry{}, false
}

// Due returns, in ascending (time, proc) order, every process whose
// exchange time is <= now. The entries remain scheduled; callers
// reschedule them via Set after the exchange completes (the paper's
// exchange() deletes the entry and has the s-function compute a new time).
func (l *List) Due(now int64) []Entry {
	var due []Entry
	for _, e := range l.at {
		if e.Proc >= 0 && e.Time <= now {
			if due == nil {
				due = make([]Entry, 0, l.n)
			}
			due = append(due, e)
		}
	}
	if !slices.IsSortedFunc(due, compareEntries) {
		slices.SortFunc(due, compareEntries)
	}
	return due
}

// Entries returns every entry in (time, proc) order — the rendering used in
// the paper's Figure 2.
func (l *List) Entries() []Entry { return l.Due(math.MaxInt64) }

// String renders the list like Figure 2: (t1,p1) (t2,p2) ...
func (l *List) String() string {
	s := ""
	for _, e := range l.Entries() {
		s += fmt.Sprintf("(%d,%d) ", e.Time, e.Proc)
	}
	return s
}

// ObjDiff pairs an object with a (possibly merged) diff and the version the
// diff produces.
type ObjDiff struct {
	Obj     store.ID
	Version int64
	D       diff.Diff
}

// SlottedBuffer buffers outstanding object modifications per remote
// process (paper Figure 3). The slots share one log of local writes: each
// remote process holds a cursor at the first write it has not been sent,
// so a write is recorded once, not once per process, and Flush drains the
// log from the process's cursor to its end. The local process has no
// cursor ("updates for the local process need not be buffered"), nor does a
// dropped one. The log prefix every cursor has passed is reclaimed as the
// log grows, so the log holds the writes since the oldest live cursor.
type SlottedBuffer struct {
	self, n int
	merge   bool
	log     []logEntry // writes with sequence numbers base, base+1, ...
	base    int
	cursor  []int // per process: sequence of its first unsent write; -1 = none
	live    int   // processes with a cursor
	latest  []int // per object: 1 + sequence of its latest write; 0 = none
	// memo is the last Flush result: processes flushed from the same
	// cursor to the same log end (every peer of a BSYNC tick) share it.
	memo struct {
		from, to int
		out      []ObjDiff
	}
	ids []store.ID // scratch
}

// logEntry is one buffered write, linked to the same object's previous one.
type logEntry struct {
	ObjDiff
	prev int // sequence of the object's previous write, or -1
}

// NewSlottedBuffer returns a buffer for a group of n processes with local
// ID self. If merge is true, successive diffs to the same object collapse
// into one — the paper's §3.1 optimization ("merge multiple diffs to the
// same object into one diff since the last exchange"). With merge false,
// every intermediate diff is retained and shipped, which the ablation bench
// uses to measure the optimization's payoff.
func NewSlottedBuffer(self, n int, merge bool) *SlottedBuffer {
	b := &SlottedBuffer{self: self, n: n, merge: merge, cursor: make([]int, n), live: n}
	if self >= 0 && self < n {
		b.cursor[self] = -1
		b.live--
	}
	return b
}

// Merging reports whether diff merging is enabled.
func (b *SlottedBuffer) Merging() bool { return b.merge }

// end is the sequence number the next write will get.
func (b *SlottedBuffer) end() int { return b.base + len(b.log) }

// from returns proc's cursor, or -1 for the local process, an out-of-range
// process, or a dropped one.
func (b *SlottedBuffer) from(proc int) int {
	if proc == b.self || proc < 0 || proc >= b.n {
		return -1
	}
	return b.cursor[proc]
}

// AddAll records that obj changed by d (reaching version) and the change
// has not yet been sent to any live remote process. Dropped processes are
// skipped: their slots accumulate nothing until Readmit.
func (b *SlottedBuffer) AddAll(obj store.ID, version int64, d diff.Diff) {
	if b.live == 0 {
		return
	}
	if len(b.log) == cap(b.log) {
		b.compact()
	}
	if int(obj) >= len(b.latest) {
		b.latest = append(b.latest, make([]int, int(obj)+1-len(b.latest))...)
	}
	b.log = append(b.log, logEntry{ObjDiff{Obj: obj, Version: version, D: d}, b.latest[obj] - 1})
	b.latest[obj] = b.end()
}

// compact reclaims the log prefix that every cursor has passed, and
// doubles the log's capacity when that frees less than half of it.
func (b *SlottedBuffer) compact() {
	low := b.end()
	for _, c := range b.cursor {
		if c >= 0 && c < low {
			low = c
		}
	}
	keep := b.log[low-b.base:]
	if len(keep) > cap(b.log)/2 {
		b.log = append(make([]logEntry, 0, 2*cap(b.log)+8), keep...)
	} else {
		n := copy(b.log, keep)
		clear(b.log[n:])
		b.log = b.log[:n]
	}
	b.base = low
}

// each calls yield for every object written at or after sequence from,
// once per object (at its latest write), until yield returns false.
func (b *SlottedBuffer) each(from int, yield func(store.ID) bool) {
	for seq := max(from, b.base); seq < b.end(); seq++ {
		if obj := b.log[seq-b.base].Obj; b.latest[obj]-1 == seq && !yield(obj) {
			return
		}
	}
}

// Each calls yield for every object with modifications pending for proc,
// once per object and in no particular order, until yield returns false.
// It allocates nothing; Objects is the sorted copy.
func (b *SlottedBuffer) Each(proc int, yield func(store.ID) bool) {
	if c := b.from(proc); c >= 0 {
		b.each(c, yield)
	}
}

// Pending returns the number of buffered object diffs for proc.
func (b *SlottedBuffer) Pending(proc int) int {
	c := b.from(proc)
	if c < 0 {
		return 0
	}
	if !b.merge {
		return b.end() - c
	}
	n := 0
	b.each(c, func(store.ID) bool { n++; return true })
	return n
}

// objects appends the objects written at or after sequence from to ids,
// ascending.
func (b *SlottedBuffer) objects(from int, ids []store.ID) []store.ID {
	b.each(from, func(obj store.ID) bool { ids = append(ids, obj); return true })
	if !slices.IsSorted(ids) {
		slices.Sort(ids)
	}
	return ids
}

// Objects returns the IDs of objects with buffered diffs for proc, in
// ascending order.
func (b *SlottedBuffer) Objects(proc int) []store.ID {
	if c := b.from(proc); c >= 0 && c < b.end() {
		return b.objects(c, nil)
	}
	return nil
}

// Flush removes and returns proc's buffered diffs, ordered by ascending
// object ID and, within an object, oldest first (so sequential application
// at the receiver reproduces the writer's final state). Only the distinct
// object IDs are sorted; each object's writes are found through their
// links. The result may be shared with other processes flushed from the
// same point and must not be modified.
func (b *SlottedBuffer) Flush(proc int) []ObjDiff {
	c, end := b.from(proc), b.end()
	if c < 0 || c == end {
		return nil
	}
	b.cursor[proc] = end
	if b.memo.from != c || b.memo.to != end {
		b.ids = b.objects(c, b.ids[:0])
		out := make([]ObjDiff, 0, len(b.ids))
		for _, obj := range b.ids {
			out = b.appendObject(out, obj, c)
		}
		b.memo.from, b.memo.to, b.memo.out = c, end, out[:len(out):len(out)]
	}
	return b.memo.out
}

// appendObject appends obj's writes at or after sequence from, oldest
// first — with merge on, folded into one diff per object. Merging starts at
// the newest whole-state replacement, which shadows everything older; a
// pair of diffs that cannot merge (mismatched lengths) ships unmerged.
func (b *SlottedBuffer) appendObject(out []ObjDiff, obj store.ID, from int) []ObjDiff {
	first := len(out)
	for seq := b.latest[obj] - 1; seq >= from; {
		e := &b.log[seq-b.base]
		out = append(out, e.ObjDiff)
		if b.merge && e.D.Replace {
			break
		}
		seq = e.prev
	}
	slices.Reverse(out[first:])
	if !b.merge {
		return out
	}
	run := out[first:]
	out, acc := out[:first], run[0]
	for _, od := range run[1:] {
		var m diff.Diff
		if err := diff.MergeInto(&m, acc.D, od.D); err != nil {
			out, acc = append(out, acc), od
			continue
		}
		acc = ObjDiff{Obj: obj, Version: od.Version, D: m}
	}
	return append(out, acc)
}

// Drop discards proc's buffered diffs and tombstones the slot: a dropped
// process (DONE, evicted as crashed, or absent from the initial
// membership) accumulates nothing until Readmit re-opens its slot.
func (b *SlottedBuffer) Drop(proc int) {
	if b.from(proc) >= 0 {
		b.cursor[proc] = -1
		b.live--
	}
}

// Dropped reports whether proc's slot is tombstoned.
func (b *SlottedBuffer) Dropped(proc int) bool {
	return proc != b.self && proc >= 0 && proc < b.n && b.cursor[proc] < 0
}

// Readmit re-opens the slot of a previously dropped process so future
// writes buffer for it again — the slotted-buffer half of peer rejoin. The
// joiner's missed history travels in the store snapshot, so the re-opened
// slot starts empty. Readmitting a live slot is a no-op.
func (b *SlottedBuffer) Readmit(proc int) {
	if b.Dropped(proc) {
		b.cursor[proc] = b.end()
		b.live++
	}
}

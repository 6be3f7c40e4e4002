package store

import (
	"encoding/binary"
	"errors"
	"testing"

	"sdso/internal/diff"
)

// hostileSnapshot is a well-formed one-record snapshot whose record claims
// object ID id.
func hostileSnapshot(id uint32) []byte {
	s := New()
	_ = s.Register(0, []byte("x"))
	snap := s.Snapshot(3)
	binary.BigEndian.PutUint32(snap[snapshotHeaderSize:], id)
	return snap
}

// TestHostileIDsDoNotGrowTheTable: the table is indexed by ID, so an ID at
// or above MaxObjects — from Register or from a snapshot record — is
// refused before the table grows.
func TestHostileIDsDoNotGrowTheTable(t *testing.T) {
	s := newTestStore(t)
	pages := len(s.pages)
	for _, id := range []ID{MaxObjects, 0xFFFFFFFF} {
		if err := s.Register(id, []byte("big")); err == nil {
			t.Errorf("Register(%d) accepted an out-of-range ID", id)
		}
		snap := hostileSnapshot(uint32(id))
		if _, _, err := s.Merge(snap); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("Merge of record ID %d: err = %v, want ErrBadSnapshot", id, err)
		}
		if _, err := s.Restore(snap); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("Restore of record ID %d: err = %v, want ErrBadSnapshot", id, err)
		}
	}
	if len(s.pages) != pages || s.Len() != 2 {
		t.Fatalf("hostile IDs grew the store: %d pages (was %d), %d objects", len(s.pages), pages, s.Len())
	}
	if err := s.Register(MaxObjects-1, []byte("top")); err != nil {
		t.Fatalf("Register(MaxObjects-1): %v", err)
	}
}

// TestRegisterAllocatesRowsNotASeries: registering n sequential IDs
// allocates about n rows — whole pages, never a copy of the table.
func TestRegisterAllocatesRowsNotASeries(t *testing.T) {
	const n = 10 * pageSize
	s := New()
	for id := ID(0); id < n; id++ {
		if err := s.Register(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	rows := 0
	for _, pg := range s.pages {
		rows += len(pg)
	}
	if rows != n {
		t.Fatalf("%d registrations allocated %d rows", n, rows)
	}
}

// TestHotPathAllocs: Version allocates nothing and ApplyDiffFrom allocates
// only the new state it installs.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s := newTestStore(t)
	if got := testing.AllocsPerRun(100, func() { _, _ = s.Version(2) }); got != 0 {
		t.Errorf("Version allocates %.1f times per call", got)
	}
	d := diff.Compute([]byte("beta"), []byte("bEta"))
	ver := int64(0)
	got := testing.AllocsPerRun(100, func() {
		ver++
		_ = s.ApplyDiffFrom(2, d, ver, 1)
	})
	if got > 1 {
		t.Errorf("ApplyDiffFrom allocates %.1f times per call, want at most the new state", got)
	}
}

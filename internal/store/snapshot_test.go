package store

import (
	"bytes"
	"errors"
	"testing"
)

// TestSnapshotRestoreRoundTrip: Restore on a fresh store reproduces the
// source store exactly, floor included.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Update(1, []byte("alpha2")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	snap := s.Snapshot(17)

	fresh := New()
	floor, err := fresh.Restore(snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if floor != 17 {
		t.Fatalf("floor = %d, want 17", floor)
	}
	if !fresh.Equal(s) {
		t.Fatal("restored store differs from the source")
	}
	if v, _ := fresh.Version(1); v != 1 {
		t.Fatalf("restored version = %d, want 1", v)
	}
}

// TestSnapshotRestoreReplaces: Restore discards state the snapshot does not
// mention.
func TestSnapshotRestoreReplaces(t *testing.T) {
	src := New()
	if err := src.Register(5, []byte("only")); err != nil {
		t.Fatal(err)
	}
	dst := newTestStore(t)
	if _, err := dst.Restore(src.Snapshot(0)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if dst.Has(1) || dst.Has(2) {
		t.Fatal("Restore kept objects absent from the snapshot")
	}
	if !dst.Has(5) {
		t.Fatal("Restore lost the snapshot's object")
	}
}

// TestMergeVersionGated: Merge adopts only strictly newer versions and
// registers unknown objects, so merging many peers' snapshots in any order
// converges to the element-wise freshest state.
func TestMergeVersionGated(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Update(1, []byte("local1")); err != nil { // version 1
		t.Fatal(err)
	}

	peer := newTestStore(t)
	for i, state := range [][]byte{[]byte("p1"), []byte("p2")} {
		if _, err := peer.Update(2, append(state, byte(i))); err != nil { // 2 → version 2
			t.Fatal(err)
		}
	}
	if err := peer.Register(9, []byte("new")); err != nil {
		t.Fatal(err)
	}

	adopted, floor, err := s.Merge(peer.Snapshot(42))
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if floor != 42 {
		t.Fatalf("floor = %d, want 42", floor)
	}
	// Adopted: object 2 (peer version 2 > local 0) and object 9 (unknown).
	// Not adopted: object 1 (peer version 0 < local 1).
	if adopted != 2 {
		t.Fatalf("adopted = %d, want 2", adopted)
	}
	if b, _ := s.Get(1); !bytes.Equal(b, []byte("local1")) {
		t.Fatalf("object 1 regressed to %q", b)
	}
	if v, _ := s.Version(2); v != 2 {
		t.Fatalf("object 2 version = %d, want 2", v)
	}
	if !s.Has(9) {
		t.Fatal("unknown object 9 not registered by Merge")
	}

	// A second identical merge is a no-op: nothing is strictly newer.
	adopted, _, err = s.Merge(peer.Snapshot(42))
	if err != nil {
		t.Fatalf("second Merge: %v", err)
	}
	if adopted != 0 {
		t.Fatalf("idempotent re-merge adopted %d objects", adopted)
	}
}

// TestMergeUnionAcrossPeers: two partial peer snapshots merged in either
// order yield the same union — the joiner's multi-responder guarantee.
func TestMergeUnionAcrossPeers(t *testing.T) {
	peerA := newTestStore(t)
	if _, err := peerA.Update(1, []byte("A-fresh")); err != nil {
		t.Fatal(err)
	}
	peerB := newTestStore(t)
	for _, state := range [][]byte{[]byte("x"), []byte("B-fresh")} {
		if _, err := peerB.Update(2, state); err != nil {
			t.Fatal(err)
		}
	}

	mergeBoth := func(first, second []byte) *Store {
		s := New()
		for _, snap := range [][]byte{first, second} {
			if _, _, err := s.Merge(snap); err != nil {
				t.Fatalf("Merge: %v", err)
			}
		}
		return s
	}
	ab := mergeBoth(peerA.Snapshot(0), peerB.Snapshot(0))
	ba := mergeBoth(peerB.Snapshot(0), peerA.Snapshot(0))
	if !ab.Equal(ba) {
		t.Fatal("merge order changed the result")
	}
	if b, _ := ab.Get(1); !bytes.Equal(b, []byte("A-fresh")) {
		t.Fatalf("object 1 = %q, want peer A's write", b)
	}
	if b, _ := ab.Get(2); !bytes.Equal(b, []byte("B-fresh")) {
		t.Fatalf("object 2 = %q, want peer B's write", b)
	}
}

// TestMergeRejectsCorrupt: structurally invalid snapshots are refused
// without touching the store.
func TestMergeRejectsCorrupt(t *testing.T) {
	s := newTestStore(t)
	good := s.Snapshot(3)
	cases := map[string][]byte{
		"empty":      {},
		"short":      good[:snapshotHeaderSize-1],
		"truncated":  good[:len(good)-1],
		"trailing":   append(append([]byte{}, good...), 0xFF),
		"huge count": func() []byte { b := append([]byte{}, good...); b[8] = 0xFF; return b }(),
	}
	for name, snap := range cases {
		ref := s.Clone()
		if _, _, err := s.Merge(snap); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: Merge err = %v, want ErrBadSnapshot", name, err)
		}
		if _, err := s.Restore(snap); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: Restore err = %v, want ErrBadSnapshot", name, err)
		}
		if !s.Equal(ref) {
			t.Errorf("%s: rejected snapshot mutated the store", name)
		}
	}
}

// FuzzMerge throws arbitrary bytes at the snapshot codec: Merge must either
// reject them as malformed or apply them without panicking, and a snapshot
// of the merged store must itself round-trip.
func FuzzMerge(f *testing.F) {
	seed := New()
	_ = seed.Register(1, []byte("alpha"))
	_, _ = seed.Update(1, []byte("alpha2"))
	f.Add(seed.Snapshot(5))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1})
	f.Add(hostileSnapshot(0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, snap []byte) {
		s := New()
		_ = s.Register(1, []byte("base"))
		if _, _, err := s.Merge(snap); err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("Merge failed with a non-codec error: %v", err)
			}
			return
		}
		again := New()
		if _, err := again.Restore(s.Snapshot(0)); err != nil {
			t.Fatalf("re-snapshot of merged store does not round-trip: %v", err)
		}
		if !again.Equal(s) {
			t.Fatal("re-snapshot round-trip diverged")
		}
	})
}

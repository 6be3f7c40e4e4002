package xlist

import (
	"testing"

	"sdso/internal/diff"
	"sdso/internal/store"
)

// TestAddAllAllocsIndependentOfPeers: a write is logged once, not once per
// peer, so AddAll's amortized allocations do not grow with the group.
func TestAddAllAllocsIndependentOfPeers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	d := diff.Diff{Replace: true, Len: 8, Runs: []diff.Run{{Off: 0, Data: make([]byte, 8)}}}
	allocs := func(n int) float64 {
		b := NewSlottedBuffer(0, n, true)
		obj := store.ID(0)
		return testing.AllocsPerRun(4096, func() {
			obj = (obj + 7) % 512
			b.AddAll(obj, 1, d)
		})
	}
	one, many := allocs(2), allocs(256)
	if many > one || many > 0.1 {
		t.Fatalf("AddAll allocates %.2f times per call with 255 live peers (%.2f with 1)", many, one)
	}
}

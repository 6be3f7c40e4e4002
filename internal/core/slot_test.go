package core

import (
	"testing"

	"sdso/internal/transport"
	"sdso/internal/wire"
)

// TestSlotDroppedExactlyWhenGone pins the invariant that lets Write hand
// the slotted buffer no skip set: a peer's slot is dropped exactly while
// the peer is done, crashed or absent — after initial absence, handleDone
// and evictPeer — and a join readmission re-opens it.
func TestSlotDroppedExactlyWhenGone(t *testing.T) {
	const n = 5
	net := transport.NewMemNetwork(n)
	t.Cleanup(net.Close)
	r, err := New(Config{Endpoint: net.Endpoint(0), MergeDiffs: true, InitialMembers: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, dropped ...int) {
		t.Helper()
		want := make([]bool, n)
		for _, p := range dropped {
			want[p] = true
		}
		for p := 1; p < n; p++ {
			if got := r.buf.Dropped(p); got != want[p] || got != r.PeerGone(p) {
				t.Fatalf("%s: peer %d Dropped=%v PeerGone=%v, want dropped=%v", stage, p, got, r.PeerGone(p), want[p])
			}
		}
	}
	check("initial absence", 4)
	r.handleDone(1, &wire.Msg{Kind: wire.KindDone})
	check("handleDone", 1, 4)
	r.evictPeer(2)
	check("evictPeer", 1, 2, 4)
	r.serveJoin(2, &wire.Msg{Kind: wire.KindJoinReq, Stamp: 1})
	check("rejoin of an evicted peer", 1, 4)
	r.serveJoin(4, &wire.Msg{Kind: wire.KindJoinReq, Stamp: 1})
	check("late join of an absent peer", 1)
	r.serveJoin(1, &wire.Msg{Kind: wire.KindJoinReq, Stamp: 1})
	check("join request from a done peer", 1)
}

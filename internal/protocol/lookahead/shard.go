package lookahead

// World sharding for the lookahead protocols (PlayerConfig.Shards): the
// runtime DATA filter that intersects the exchange fanout with shard
// residency. The partition itself lives in internal/shard; this file
// wires it to the player loop the same way interest.go wires the
// grid-bucketed interest index.

import (
	"sdso/internal/game"
)

// shardGate is the core.Config.ShardFilter: data flows to a peer when
// the two neighborhoods share a world shard — some region within the
// interaction radius of our tanks and buffered modifications that the
// peer's last-known tanks are also within (slack-extended) reach of.
// Peers nothing is known about always pass (safety degrades to
// flushing, never to silence), and the MSYNC flush backstops override
// the veto with exactly the slacks interestGate uses, so intersecting
// the two filters never withholds a flush the paper's invariants
// require.
func (p *player) shardGate(peer int) bool {
	kp := p.known[peer]
	if kp == nil || len(kp.beacon.Tanks) == 0 {
		return true
	}
	h := p.cfg.Game.InteractionRadius()
	staleness := int(p.rt.Now() - kp.tick)
	myBox := p.pendingBox(peer)
	if game.BoxApproach(kp.beacon.Tanks, myBox, h, staleness+3) {
		return true
	}
	mine := game.Positions(p.tanks)
	if myBox != nil && game.WithinRange(mine, kp.beacon.Tanks, h, staleness+4) {
		return true
	}
	// Residency intersection: our footprint at the interaction radius
	// against the peer's, slack-extended by how far its tanks may have
	// drifted since the beacon (one block per tick, like the backstops).
	if p.shards.Overlaps(mine, h, kp.beacon.Tanks, h+staleness+4) {
		return true
	}
	p.mc.AddShardVeto()
	return false
}

// Delta-encoded exchanges: when Config.DeltaEncode is on, DATA payloads use
// the delta-capable record encoding (xlist.EncodeDeltaRecords) and each
// record may be an XOR delta against the last state of that object the
// destination provably consumed, instead of a full replacement diff.
//
// The machinery is a per-peer acked-version table fed by the existing SYNC
// traffic. For every peer the sender tracks, per object:
//
//   - tip: the state after the last record flushed to that peer (no row
//     means the registered initial state — both sides share it, so even a
//     first record can be a delta);
//   - pending: a FIFO of (stamp, row) pairs for records sent but not yet
//     proven consumed. A consumed SYNC from the peer stamped s proves the
//     peer completed every mutual rendezvous before s, and therefore (FIFO
//     channels) consumed every record stamped below s; those entries are
//     promoted out of the FIFO.
//
// A record for an object is delta-encoded only when the object has no
// pending record (the ack table is current — on any ack gap the sender
// falls back to a full record) and the delta is actually smaller. Each
// delta carries the base's version and 32-bit fingerprint; the receiver
// keeps a per-sender shadow of the sender's last-sent states and verifies
// both before applying, so a diverged base — a dropped frame on a shed
// send queue, a session reset — is detected, counted, and recovered from
// (an AsyncGet refetches the full state and realigns both tables) rather
// than silently patched into garbage.
package core

import (
	"slices"

	"sdso/internal/diff"
	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/wire"
	"sdso/internal/xlist"
)

// deltaTx is the sender's row for one (peer, object). A missing row means
// the peer holds the registered initial state.
type deltaTx struct {
	tip   []byte // state after the last flushed record
	ver   int64
	npend int // records sent but not yet proven consumed
}

// deltaPending is one record sent but not yet proven consumed.
type deltaPending struct {
	stamp int64
	row   *deltaTx
}

// deltaSendState is the sender half of the acked-version table for one peer.
type deltaSendState struct {
	rows    map[store.ID]*deltaTx
	pending []deltaPending // FIFO by stamp
}

// deltaRx is the receiver's shadow of one sender's last-sent state of one
// object.
type deltaRx struct {
	state []byte
	ver   int64
	has   bool // state is set; otherwise the shadow is the initial state
	// bad marks a shadow that is unknown (a rejected delta, a diff that
	// would not apply); deltas are refused until a full replacement record
	// or a recovery reply restores it.
	bad bool
}

// deltaTxRow returns (allocating on first use) the send row for (peer, obj)
// and whether it already existed.
func (r *Runtime) deltaTxRow(peer int, obj store.ID) (*deltaTx, bool) {
	p := &r.peers[peer]
	if p.tx == nil {
		p.tx = &deltaSendState{rows: make(map[store.ID]*deltaTx)}
	}
	row, ok := p.tx.rows[obj]
	if !ok {
		row = &deltaTx{}
		p.tx.rows[obj] = row
	}
	return row, ok
}

// deltaRxRow returns (allocating on first use) the shadow row for
// (peer, obj).
func (r *Runtime) deltaRxRow(peer int, obj store.ID) *deltaRx {
	p := &r.peers[peer]
	if p.rx == nil {
		p.rx = make(map[store.ID]*deltaRx)
	}
	row := p.rx[obj]
	if row == nil {
		row = &deltaRx{}
		p.rx[obj] = row
	}
	return row
}

// encodeDataPayload builds the payload for a DATA frame carrying diffs to
// peer, stamped stamp. With DeltaEncode off it is exactly the PR4 encoding
// (and returns mode 0, leaving frames byte-identical); with it on, each
// record is delta-encoded when the table permits and the result is smaller,
// and the returned mode bit marks the payload for the receiver.
func (r *Runtime) encodeDataPayload(peer int, diffs []xlist.ObjDiff, stamp int64) ([]byte, uint8) {
	if !r.cfg.DeltaEncode {
		return xlist.EncodeDiffs(diffs), 0
	}
	recs := r.recs[:0]
	for _, od := range diffs {
		rec := xlist.DeltaRecord{Obj: od.Obj, Version: od.Version, D: od.D}
		row, haveTip := r.deltaTxRow(peer, od.Obj)
		base, baseVer := row.tip, row.ver
		if !haveTip {
			// The registered initial state: the universal base both sides
			// share before any record flows.
			base = r.st.Initial(od.Obj)
		}
		next, err := diff.Apply(base, od.D)
		if err != nil {
			// The diff does not apply over our record of the peer's state
			// (it should: Write buffers whole-state replacements). Ship the
			// full record and resynchronize the tip from the local store.
			if cur, gerr := r.st.Get(od.Obj); gerr == nil {
				next = cur
			} else {
				next = base
			}
		}
		if row.npend == 0 && len(base) == len(next) {
			if x, xerr := diff.EncodeXOR(base, next); xerr == nil {
				full := diff.EncodedLen(od.D)
				if len(x) < full {
					rec.Delta = true
					rec.D = diff.Diff{}
					rec.BaseVer = baseVer
					rec.BaseHash = diff.Fingerprint(base)
					rec.X = x
					r.mc.AddDeltaRecord(full - len(x))
				}
			}
		}
		row.tip, row.ver = next, od.Version
		row.npend++
		ds := r.peers[peer].tx
		ds.pending = append(ds.pending, deltaPending{stamp: stamp, row: row})
		recs = append(recs, rec)
	}
	payload := xlist.EncodeDeltaRecords(recs)
	clear(recs)
	r.recs = recs[:0]
	return payload, wire.ModeDeltaPayload
}

// deltaAck feeds a consumed SYNC from peer stamped stamp into the ack
// table: every record stamped strictly below stamp is promoted (the peer
// cannot emit a SYNC for tick s before completing the rendezvous that
// consumed them).
func (r *Runtime) deltaAck(peer int, stamp int64) {
	ds := r.peers[peer].tx
	if ds == nil {
		return
	}
	i := 0
	for ; i < len(ds.pending) && ds.pending[i].stamp < stamp; i++ {
		ds.pending[i].row.npend--
	}
	if i > 0 {
		ds.pending = append(ds.pending[:0], ds.pending[i:]...)
	}
}

// applyDeltaData decodes and applies a DATA payload in the delta-capable
// record encoding. Every consumed record — whatever the main store decides
// — advances the per-sender shadow, because the shadow mirrors what the
// sender sent, not what the receiver kept. Store application then goes
// through exactly the version/PID gate applyData uses.
func (r *Runtime) applyDeltaData(m *wire.Msg) {
	recs, err := xlist.DecodeDeltaRecords(m.Payload)
	if err != nil {
		return // corrupt payloads are dropped, like plain diff batches
	}
	src := int(m.Src)
	for _, rec := range recs {
		row := r.deltaRxRow(src, rec.Obj)
		base := row.state
		if !row.has {
			base = r.st.Initial(rec.Obj)
		}
		var next []byte
		if rec.Delta {
			if row.bad || row.ver != rec.BaseVer || diff.Fingerprint(base) != rec.BaseHash {
				// Stale or diverged base: refuse the delta and refetch the
				// full state from the sender (the reply realigns both
				// sides' tables). FIFO ordering makes this converge even if
				// more stale-base records are already in flight.
				r.mc.AddDeltaMismatch()
				row.bad = true
				r.deltaRequestRecovery(src, rec.Obj)
				continue
			}
			next, err = diff.ApplyXOR(base, rec.X)
			if err != nil {
				r.mc.AddDeltaMismatch()
				row.bad = true
				r.deltaRequestRecovery(src, rec.Obj)
				continue
			}
		} else {
			next, err = diff.Apply(base, rec.D)
			if err != nil {
				// The shadow is unknown now. A replacement applies over
				// anything, so that case is unreachable; a run diff over an
				// unknown shadow still applies to the store as plain data
				// would.
				row.bad = true
				if rec.D.Replace {
					continue
				}
				r.applyDeltaToStore(src, rec.Obj, rec.Version, rec.D, nil, m.Stamp)
				continue
			}
			if rec.D.Replace {
				row.bad = false
			}
		}
		if !row.bad {
			row.state, row.ver, row.has = next, rec.Version, true
		}
		if rec.Delta {
			r.applyDeltaToStore(src, rec.Obj, rec.Version, diff.Diff{}, next, m.Stamp)
		} else {
			r.applyDeltaToStore(src, rec.Obj, rec.Version, rec.D, nil, m.Stamp)
		}
	}
}

// applyDeltaToStore pushes one decoded record into the main store through
// the same version/PID gate as applyData: older versions are stale, equal
// versions are a data race arbitrated by PID, newer versions win. A delta
// record supplies the reconstructed full state (state non-nil); a full
// record supplies the diff.
func (r *Runtime) applyDeltaToStore(src int, obj store.ID, ver int64, d diff.Diff, state []byte, stamp int64) {
	cur, err := r.st.Version(obj)
	if err != nil {
		return
	}
	if ver < cur {
		r.tr.Record(trace.OpStale, src, int64(obj), ver, r.now, 0)
		return
	}
	if ver == cur {
		w, _ := r.st.WriterOf(obj)
		if w < 0 || src >= w {
			r.tr.Record(trace.OpStale, src, int64(obj), ver, r.now, 1)
			return
		}
	}
	if state != nil {
		_ = r.st.SetStateFrom(obj, state, ver, src)
	} else {
		_ = r.st.ApplyDiffFrom(obj, d, ver, src)
	}
	r.tr.Record(trace.OpApply, src, int64(obj), ver, r.now, stamp)
}

// deltaRequestRecovery refetches obj's full state from peer after a base
// mismatch, at most one outstanding request per (peer, object).
func (r *Runtime) deltaRequestRecovery(peer int, obj store.ID) {
	p := &r.peers[peer]
	if p.fetch[obj] {
		return
	}
	if p.fetch == nil {
		p.fetch = make(map[store.ID]bool)
	}
	p.fetch[obj] = true
	_ = r.AsyncGet(obj, peer)
}

// deltaServe resets the sender half of the table after serving obj's full
// state to peer (an ObjReply): the requester will adopt exactly this state
// as its shadow, so the tip realigns to it and every pending record for the
// object is dropped (the reply supersedes them; any still in flight will be
// refused by the requester's fingerprint gate and recovered again if needed,
// but FIFO ordering means the reply lands after them).
func (r *Runtime) deltaServe(peer int, obj store.ID, state []byte, ver int64) {
	if !r.cfg.DeltaEncode {
		return
	}
	row, _ := r.deltaTxRow(peer, obj)
	row.tip, row.ver = append([]byte(nil), state...), ver
	if row.npend > 0 {
		ds := r.peers[peer].tx
		ds.pending = slices.DeleteFunc(ds.pending, func(p deltaPending) bool { return p.row == row })
		row.npend = 0
	}
}

// deltaAdoptReply realigns the receiver's shadow with a full-state ObjReply
// from peer (the recovery path's delivery): whatever the main store decided,
// the sender's table now assumes we hold exactly this state.
func (r *Runtime) deltaAdoptReply(peer int, obj store.ID, state []byte, ver int64) {
	row := r.deltaRxRow(peer, obj)
	*row = deltaRx{state: append([]byte(nil), state...), ver: ver, has: true}
	delete(r.peers[peer].fetch, obj)
}

// deltaResetPeer drops every delta table for peer, forcing full records on
// the next exchange in both directions. Called on eviction and readmission:
// a session reset or a rejoin invalidates any assumption about what the
// other side holds.
func (r *Runtime) deltaResetPeer(peer int) {
	p := &r.peers[peer]
	p.tx, p.rx, p.fetch = nil, nil, nil
}

// deltaResetAll drops every peer's delta tables (a joiner's state predates
// the snapshot it is about to restore).
func (r *Runtime) deltaResetAll() {
	for peer := range r.peers {
		r.deltaResetPeer(peer)
	}
}

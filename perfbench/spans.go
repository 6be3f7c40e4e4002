package main

// Benchmark-owned spans for the traced tcp-pair run: the driver opens a
// span around each call into core (Write, Exchange), and timedEP, a
// decorator on the TCPEndpoint, opens one around each call core makes into
// the transport. Each runtime is driven by one goroutine and the transport
// is called only from it, so a side's log needs no locking. Spans are kept
// in memory and written out when the run ends.

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"sdso/internal/transport"
	"sdso/internal/wire"
)

type spanName uint8

const (
	spanWrite spanName = iota
	spanExchange
	spanSend
	spanSendMany
	spanSendEncoded
	spanFlush
	spanRecv
	spanRecvTimeout
	spanTryRecv
	numSpanNames
)

var spanNames = [numSpanNames]string{"core.Write", "core.Exchange", "transport.Send", "transport.SendMany",
	"transport.SendEncoded", "transport.Flush", "transport.Recv", "transport.RecvTimeout", "transport.TryRecv"}

// maxSpans caps the raw spans a side keeps for the output file; the
// aggregates cover every span.
const maxSpans = 50_000

type span struct {
	name       spanName
	parent     int32 // index in the log, -1 for a root
	start, end int64 // ns since the log's base
}

// spanAgg sums one span name's calls: count, total duration, and self time
// (duration minus the time its child spans cover).
type spanAgg struct {
	count       int
	total, self int64
}

type openSpan struct {
	idx   int32 // raw span index, -1 once the cap is reached
	name  spanName
	start int64
	child int64 // ns covered by finished children
}

type spanLog struct {
	base  time.Time
	spans []span
	open  []openSpan
	agg   [numSpanNames]spanAgg
	// frames, flushes and wireBytes count the transport calls the
	// decorator saw.
	frames, flushes, wireBytes int
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// begin opens a span; a nil log records nothing.
func (l *spanLog) begin(name spanName) int {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.base))
	idx := int32(-1)
	if len(l.spans) < maxSpans {
		parent := int32(-1)
		if len(l.open) > 0 {
			parent = l.open[len(l.open)-1].idx
		}
		idx = int32(len(l.spans))
		l.spans = append(l.spans, span{name: name, parent: parent, start: now})
	}
	l.open = append(l.open, openSpan{idx: idx, name: name, start: now})
	return len(l.open) - 1
}

// end closes the innermost open span (the one begin returned).
func (l *spanLog) end(depth int) {
	if l == nil || depth < 0 {
		return
	}
	now := int64(time.Since(l.base))
	o := l.open[depth]
	l.open = l.open[:depth]
	d := now - o.start
	a := &l.agg[o.name]
	a.count++
	a.total += d
	a.self += d - o.child
	if depth > 0 {
		l.open[depth-1].child += d
	}
	if o.idx >= 0 {
		l.spans[o.idx].end = now
	}
}

// writeSpans writes every kept span as tab-separated
// side, name, start ns, end ns, parent index.
func writeSpans(path string, logs ...*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "side\tname\tstart_ns\tend_ns\tparent")
	for side, l := range logs {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", side, spanNames[s.name], s.start, s.end, s.parent)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// spanLayers derives the tcp-pair span metrics over both sides' logs,
// scaling their times by the machine's speed while they were recorded.
func spanLayers(m map[string]float64, exchanges int, speed float64, logs ...*spanLog) {
	var agg [numSpanNames]spanAgg
	var frames, flushes, bytes int
	for _, l := range logs {
		for i, a := range l.agg {
			agg[i].count += a.count
			agg[i].total += a.total
			agg[i].self += a.self
		}
		frames += l.frames
		flushes += l.flushes
		bytes += l.wireBytes
	}
	sum := func(names ...spanName) (n int, total int64) {
		for _, s := range names {
			n += agg[s].count
			total += agg[s].total
		}
		return n, total
	}
	sends, sendNs := sum(spanSend, spanSendMany, spanSendEncoded)
	_, recvNs := sum(spanRecv, spanRecvTimeout, spanTryRecv)
	ex := float64(exchanges)
	m["transport.send_ns"] = speed * ratio(float64(sendNs), float64(sends))
	m["transport.flush_ns"] = speed * ratio(float64(agg[spanFlush].total), float64(agg[spanFlush].count))
	m["transport.recv_wait_us"] = speed * ratio(float64(recvNs)/1e3, ex)
	m["transport.frames_per_flush"] = ratio(float64(frames), float64(flushes))
	m["transport.wire_bytes_per_exchange"] = ratio(float64(bytes), ex)
	m["core.write_ns"] = speed * ratio(float64(agg[spanWrite].total), float64(agg[spanWrite].count))
	m["core.exchange_self_us"] = speed * ratio(float64(agg[spanExchange].self)/1e3, ex)
}

// timedEP is the traced run's TCPEndpoint decorator. It forwards every
// optional transport capability (MultiSender, EncodedSender, Flusher,
// Recycler, LivenessReporter) so the traced path takes the same fast paths
// as the bare endpoint.
type timedEP struct {
	*transport.TCPEndpoint
	tr *spanLog
}

var (
	_ transport.MultiSender      = (*timedEP)(nil)
	_ transport.EncodedSender    = (*timedEP)(nil)
	_ transport.Flusher          = (*timedEP)(nil)
	_ transport.Recycler         = (*timedEP)(nil)
	_ transport.LivenessReporter = (*timedEP)(nil)
)

func (e *timedEP) Send(to int, m *wire.Msg) error {
	e.tr.frames++
	e.tr.wireBytes += 4 + m.EncodedSize()
	sp := e.tr.begin(spanSend)
	defer e.tr.end(sp)
	return e.TCPEndpoint.Send(to, m)
}

func (e *timedEP) SendMany(dsts []int, m *wire.Msg) error {
	e.tr.frames += len(dsts)
	e.tr.wireBytes += len(dsts) * (4 + m.EncodedSize())
	sp := e.tr.begin(spanSendMany)
	defer e.tr.end(sp)
	return e.TCPEndpoint.SendMany(dsts, m)
}

func (e *timedEP) SendEncoded(to int, enc *wire.Encoded, m *wire.Msg) error {
	e.tr.frames++
	e.tr.wireBytes += enc.Len()
	sp := e.tr.begin(spanSendEncoded)
	defer e.tr.end(sp)
	return e.TCPEndpoint.SendEncoded(to, enc, m)
}

func (e *timedEP) Flush() error {
	e.tr.flushes++
	sp := e.tr.begin(spanFlush)
	defer e.tr.end(sp)
	return e.TCPEndpoint.Flush()
}

func (e *timedEP) Recv() (*wire.Msg, error) {
	sp := e.tr.begin(spanRecv)
	defer e.tr.end(sp)
	return e.TCPEndpoint.Recv()
}

func (e *timedEP) RecvTimeout(d time.Duration) (*wire.Msg, bool, error) {
	sp := e.tr.begin(spanRecvTimeout)
	defer e.tr.end(sp)
	return e.TCPEndpoint.RecvTimeout(d)
}

func (e *timedEP) TryRecv() (*wire.Msg, bool, error) {
	sp := e.tr.begin(spanTryRecv)
	defer e.tr.end(sp)
	return e.TCPEndpoint.TryRecv()
}

package main

// The tcp-pair workload: two core.Runtimes, each driven by its own
// goroutine, share the 768 objects of the paper's 32x24 world over one
// loopback TCP connection with the live sdso-node defaults (merged diffs,
// zero TCPConfig). Side i plays team i of a recorded write script: every
// tick it writes the cells its tank's action changed in a 2-team game and
// calls Exchange{Resync, EveryTick}, a closed loop, since each exchange
// waits for the partner's.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sdso/internal/core"
	"sdso/internal/game"
	"sdso/internal/harness"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
)

const (
	tcpTicksPerPass = 5000
	tcpSetupReps    = 101
)

var tcpExchange = core.ExchangeOpts{Resync: true, How: core.Multicast, SFunc: core.EveryTick}

// write is one cell modification of the script.
type write struct {
	id   store.ID
	cell game.Cell
}

// script is the write sequence tcp-pair replays, once per pass. It is
// recorded from 2-team games on the paper's 32x24 world under the
// sdso-node defaults (range 1, 200-tick cap, first-goal race), played by
// game.RunReference with seeds derived from the workload seed and joined
// end to end: team i's writes in a game tick are side i's in the script
// tick. Each write is what the team's action implies (Action.Writes), as
// the live lookahead player issues it.
type script struct {
	seeds []int64      // the recorded games' seeds
	world *game.World  // the first game's world, which the pair shares
	ticks [][2][]write // each tick's writes by side
	game  []int        // each tick's game, an index into seeds
}

// recordScript records a script of the given number of ticks. It
// requires the writes it reads back from each game's action log to
// replay the game: the same world after every tick and the same mods.
func recordScript(seed int64, ticks int) (*script, error) {
	sc := &script{}
	for _, gs := range deriveSeeds(seed, ticks) { // every game plays a tick
		if len(sc.ticks) >= ticks {
			break
		}
		cfg := game.DefaultConfig(2, 1)
		cfg.Seed = gs
		cfg.MaxTicks = 200
		cfg.EndOnFirstGoal = true
		cfg.TraceWorlds = true
		ref, err := game.RunReference(cfg)
		if err != nil {
			return nil, fmt.Errorf("script game seed %d: %w", gs, err)
		}
		w, err := game.NewWorld(cfg)
		if err != nil {
			return nil, err
		}
		if sc.world == nil {
			if sc.world, err = game.NewWorld(cfg); err != nil {
				return nil, err
			}
		}
		rec := make([][2][]write, len(ref.Hashes))
		for team := range 2 {
			for _, line := range ref.Actions[team] {
				tick, act, err := parseAction(line)
				if err != nil || tick < 1 || int(tick) > len(rec) {
					return nil, fmt.Errorf("script game seed %d: action %q: %v", gs, line, err)
				}
				cws, _ := act.Writes(team, ref.Final.Goal)
				for _, cw := range cws {
					rec[tick-1][team] = append(rec[tick-1][team], write{cfg.ObjectOf(cw.Pos), cw.Cell})
				}
			}
		}
		var mods [2]int
		for t, byTeam := range rec {
			for team, ws := range byTeam {
				if len(ws) > 0 {
					mods[team]++
				}
				for _, wr := range ws {
					w.Set(cfg.PosOf(wr.id), wr.cell)
				}
			}
			if game.WorldHash(w) != ref.Hashes[t] {
				return nil, fmt.Errorf("script game seed %d: the recorded writes diverge from the game at tick %d", gs, t+1)
			}
		}
		for team, st := range ref.Stats {
			if st.Mods != mods[team] {
				return nil, fmt.Errorf("script game seed %d: team %d recorded %d mods, the game counts %d", gs, team, mods[team], st.Mods)
			}
		}
		sc.seeds = append(sc.seeds, gs)
		for range rec {
			sc.game = append(sc.game, len(sc.seeds)-1)
		}
		sc.ticks = append(sc.ticks, rec...)
	}
	if len(sc.ticks) < ticks {
		return nil, fmt.Errorf("script of %d ticks, want %d", len(sc.ticks), ticks)
	}
	sc.ticks, sc.game = sc.ticks[:ticks], sc.game[:ticks]
	return sc, nil
}

// parseAction reads back one line of a game's action log
// (game.TraceAction).
func parseAction(line string) (int64, game.Action, error) {
	var tick int64
	var a, b game.Pos
	if _, err := fmt.Sscanf(line, "tick=%d move {%d %d}->{%d %d}", &tick, &a.X, &a.Y, &b.X, &b.Y); err == nil {
		return tick, game.Action{Kind: game.Move, From: a, To: b}, nil
	}
	if _, err := fmt.Sscanf(line, "tick=%d fire {%d %d}", &tick, &a.X, &a.Y); err == nil {
		return tick, game.Action{Kind: game.Fire, Target: a}, nil
	}
	if _, err := fmt.Sscanf(line, "tick=%d stay", &tick); err == nil {
		return tick, game.Action{Kind: game.Stay}, nil
	}
	return 0, game.Action{}, errors.New("unknown action")
}

// describe summarizes the script's traffic for the log.
func (sc *script) describe() string {
	var writes, busy, most int
	for _, byTeam := range sc.ticks {
		for _, ws := range byTeam {
			writes += len(ws)
			if len(ws) > 0 {
				busy++
			}
			most = max(most, len(ws))
		}
	}
	n := float64(2 * len(sc.ticks))
	return fmt.Sprintf("%d ticks from %d games; per side per tick %.3f writes (at most %d), a write in %.1f%% of side-ticks; game seeds %v",
		len(sc.ticks), len(sc.seeds), float64(writes)/n, most, 100*float64(busy)/n, sc.seeds)
}

// side is one runtime of the pair and the state its driver keeps.
type side struct {
	id     int
	ep     *transport.TCPEndpoint
	rt     *core.Runtime
	mc     *metrics.Collector
	sc     *script
	passes int // script replays played
	tick   int64
	mods   int
	last   map[store.ID]lastWrite // each object this side wrote
	lat    []float64              // µs of each Exchange call in the current pass
	tr     *spanLog               // non-nil on the traced run
}

// lastWrite is the value of a side's last write to an object, and its tick.
type lastWrite struct {
	tick int64
	v    []byte
}

type pair [2]*side

// freeAddrs returns n loopback addresses with ports the kernel just
// handed out.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// newPair dials the two endpoints, builds a runtime on each and shares
// every object of the script's world on both sides. With traced set each
// runtime talks through a span-recording decorator.
func newPair(sc *script, traced bool) (*pair, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	// Side 1 dials side 0, so side 0 starts first: a dial that reaches a
	// port not yet listening would wait out a reconnect backoff, and the
	// set-up time would depend on which goroutine the scheduler ran first.
	var p pair
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range p {
		started := make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			close(started)
			p[i], errs[i] = newSide(i, addrs, sc, traced)
		}(i)
		<-started
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		p.close()
		return nil, err
	}
	return &p, nil
}

func newSide(id int, addrs []string, sc *script, traced bool) (*side, error) {
	ep, err := transport.DialTCPConfig(id, addrs, transport.TCPConfig{})
	if err != nil {
		return nil, fmt.Errorf("dial side %d: %w", id, err)
	}
	s := &side{
		id:   id,
		ep:   ep,
		mc:   metrics.NewCollector(),
		sc:   sc,
		last: map[store.ID]lastWrite{},
	}
	var tep transport.Endpoint = ep
	if traced {
		s.tr = newSpanLog()
		tep = &timedEP{TCPEndpoint: ep, tr: s.tr}
	}
	s.rt, err = core.New(core.Config{Endpoint: tep, Metrics: s.mc, MergeDiffs: true})
	if err != nil {
		ep.Close()
		return nil, err
	}
	for i, c := range sc.world.Cells {
		if err := s.rt.Share(store.ID(i), game.EncodeCell(c)); err != nil {
			ep.Close()
			return nil, err
		}
	}
	return s, nil
}

// close shuts both endpoints down together (each lingers for its peer).
func (p *pair) close() {
	var wg sync.WaitGroup
	for _, s := range p {
		if s != nil {
			wg.Add(1)
			go func(s *side) {
				defer wg.Done()
				s.ep.Close()
			}(s)
		}
	}
	wg.Wait()
}

// play replays the script once on both sides concurrently.
func (p *pair) play() error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, s := range p {
		wg.Add(1)
		go func(i int, s *side) {
			defer wg.Done()
			errs[i] = s.play()
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// cellValue encodes a cell with a game number in its padding bytes. The
// pair's objects are never reset between the script's games, so without
// it a write of the value an earlier game left in a cell would change
// nothing (core skips empty diffs). Within a game every write changes its
// cell, and the encoding's size, which is all the transport sees, is the
// live player's.
func cellValue(c game.Cell, gameNo int) []byte {
	v := game.EncodeCell(c)
	binary.LittleEndian.PutUint32(v[game.CellBytes-4:], uint32(gameNo))
	return v
}

func (s *side) play() error {
	s.lat = s.lat[:0]
	game0 := s.passes * len(s.sc.seeds)
	for t, byTeam := range s.sc.ticks {
		s.tick++
		ws := byTeam[s.id]
		for _, wr := range ws {
			v := cellValue(wr.cell, game0+s.sc.game[t])
			sp := s.tr.begin(spanWrite)
			err := s.rt.Write(wr.id, v)
			s.tr.end(sp)
			if err != nil {
				return fmt.Errorf("side %d tick %d: %w", s.id, s.tick, err)
			}
			s.last[wr.id] = lastWrite{s.tick, v}
		}
		if len(ws) > 0 {
			s.mods++
			s.mc.AddMod()
		}
		sp := s.tr.begin(spanExchange)
		t0 := time.Now()
		err := s.rt.Exchange(tcpExchange)
		d := time.Since(t0)
		s.tr.end(sp)
		if err != nil {
			return fmt.Errorf("side %d exchange at tick %d: %w", s.id, s.tick, err)
		}
		s.lat = append(s.lat, float64(d)/1e3)
	}
	s.passes++
	s.mc.SetExecTime(s.ep.Now())
	return nil
}

// checkReplicas requires the two replicas to hold byte-identical stores
// in which every written object equals the later of the two sides' last
// writes to it (the script never has both sides write one object in one
// tick).
func checkReplicas(a, b *store.Store, last [2]map[store.ID]lastWrite) error {
	if !a.Equal(b) {
		return errors.New("replica stores differ")
	}
	want := map[store.ID]lastWrite{}
	for _, writes := range last {
		for id, w := range writes {
			if w.tick > want[id].tick {
				want[id] = w
			}
		}
	}
	for id, w := range want {
		for r, st := range []*store.Store{a, b} {
			got, err := st.Get(id)
			if err != nil {
				return fmt.Errorf("replica %d object %d: %w", r, id, err)
			}
			if !bytes.Equal(got, w.v) {
				return fmt.Errorf("replica %d object %d holds %x, last written %x at tick %d", r, id, got, w.v, w.tick)
			}
		}
	}
	return nil
}

// tcpRun is what passes over one pair measured.
type tcpRun struct {
	// one per pass, scaled by the machine's speed during the pass:
	// exchanges per second, ms per mod, and the median and 99th
	// percentile of the pass's Exchange calls in µs
	rates, msPerMod, p50, p99 []float64
	ticks                     int // per side, over all passes
	heap                      heapCount
	at                        interval // first pass start to last pass end
	// the first pass's messages and encoded bytes sent and its mods,
	// summed over both sides
	msgs, bytes, mods int
}

// timeTCP plays passes (one script replay each) on p within budget,
// checking the replicas after each pass.
func timeTCP(p *pair, budget time.Duration, cal *calibrator, out *outcome) (tcpRun, error) {
	var r tcpRun
	var passMods []float64 // mods per side in each pass
	var plays []interval
	lat := make([]float64, 0, 2*tcpTicksPerPass)
	h0 := readHeap()
	// The kernel is timed between passes, while the pair is idle: during
	// a pass the pair's own network stack shares the machine with it.
	passes, err := passLoop(budget, func(i int) error {
		cal.burst()
		mods0 := p[0].mods + p[1].mods
		out.attempted += 2 * tcpTicksPerPass
		t0 := time.Now()
		if err := p.play(); err != nil {
			out.fail("pass %d: %v", i, err)
			return err
		}
		plays = append(plays, interval{t0, time.Now()})
		r.ticks += tcpTicksPerPass
		passMods = append(passMods, float64(p[0].mods+p[1].mods-mods0)/2)
		lat = append(append(lat[:0], p[0].lat...), p[1].lat...)
		sort.Float64s(lat)
		r.p50 = append(r.p50, percentile(lat, 0.50))
		r.p99 = append(r.p99, percentile(lat, 0.99))
		if err := checkReplicas(p[0].rt.Store(), p[1].rt.Store(), [2]map[store.ID]lastWrite{p[0].last, p[1].last}); err != nil {
			// The pass's exchanges all fed the replicas that disagree.
			out.failed += 2*tcpTicksPerPass - 1
			out.fail("pass %d: %v", i, err)
		}
		if i == 0 {
			for _, s := range p {
				snap := s.mc.Snapshot()
				r.msgs += snap.TotalMsgs()
				r.bytes += snap.BytesSent
				r.mods += snap.Mods
			}
		}
		return nil
	})
	r.heap = readHeap().sub(h0)
	cal.burst()
	for i, iv := range plays {
		speed := cal.speed(iv.a, iv.b)
		sec := iv.seconds() * speed
		r.rates = append(r.rates, 2*tcpTicksPerPass/sec)
		r.msPerMod = append(r.msPerMod, sec*1000/passMods[i])
		r.p50[i] *= speed
		r.p99[i] *= speed
	}
	if len(passes) > 0 {
		r.at = interval{passes[0].a, passes[len(passes)-1].b}
	}
	return r, err
}

func runTCPPair(o opts) (*outcome, error) {
	sc, err := recordScript(o.seed, tcpTicksPerPass)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "# write script: %s\n", sc.describe())
	out := &outcome{}
	if o.trace {
		return out, tracedTCP(o, sc, out)
	}
	var setup []interval
	for rep := 0; rep < tcpSetupReps; rep++ {
		t0 := time.Now()
		p, err := newPair(sc, false)
		if err != nil {
			return nil, err
		}
		setup = append(setup, interval{t0, time.Now()})
		p.close()
		o.cal.burst()
	}
	p, err := newPair(sc, false)
	if err != nil {
		return nil, err
	}
	defer p.close()
	r, err := timeTCP(p, o.budget, o.cal, out)
	if err != nil {
		return out, err
	}
	fmt.Fprintf(o.log, "# %d passes of %d exchanges; latency percentiles are medians over passes\n", len(r.rates), 2*tcpTicksPerPass)
	out.e2e = map[string]float64{
		"ms_per_mod":           median(r.msPerMod),
		"msgs_per_tick":        float64(r.msgs) / (2 * tcpTicksPerPass),
		"bytes_per_mod":        ratio(float64(r.bytes), float64(r.mods)),
		"proc_ticks_per_s":     median(r.rates),
		"alloc_bytes_per_tick": float64(r.heap.bytes) / float64(2*r.ticks),
		"heap_sys_mb":          heapSysMB(),
		"setup_s":              medianScaled(setup, o.cal, 1),
		"exchange_p50_us":      median(r.p50),
		"exchange_p99_us":      median(r.p99),
	}
	return out, nil
}

// tracedTCP plays half the budget on an untraced pair and half on a
// traced one (CPU profile plus spans), and requires both pairs' first
// passes to send the same messages and bytes.
func tracedTCP(o opts, sc *script, out *outcome) error {
	p, err := newPair(sc, false)
	if err != nil {
		return err
	}
	plain, err := timeTCP(p, o.budget/2, o.cal, out)
	p.close()
	if err != nil {
		return err
	}

	tp, err := newPair(sc, true)
	if err != nil {
		return err
	}
	defer tp.close()
	path := filepath.Join(o.outDir, fmt.Sprintf("cpu-tcp-pair-seed%d.pprof", o.seed))
	var traced tcpRun
	prof, err := profileRun(path, func() (err error) {
		traced, err = timeTCP(tp, o.budget/2, o.cal, out)
		return err
	})
	if err != nil {
		return err
	}
	if plain.msgs != traced.msgs || plain.bytes != traced.bytes || plain.mods != traced.mods {
		out.fail("traced pair sent %d msgs / %d B for %d mods in its first pass, untraced %d / %d for %d",
			traced.msgs, traced.bytes, traced.mods, plain.msgs, plain.bytes, plain.mods)
	}
	spanPath := filepath.Join(o.outDir, fmt.Sprintf("spans-tcp-pair-seed%d.tsv", o.seed))
	if err := writeSpans(spanPath, tp[0].tr, tp[1].tr); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "# CPU profile %s, spans %s; %d untraced and %d traced passes\n", path, spanPath, len(plain.rates), len(traced.rates))
	exchanges := 2 * traced.ticks
	out.layer = map[string]float64{}
	speed := o.cal.speed(traced.at.a, traced.at.b)
	prof.fill(out.layer, exchanges, speed, traced.heap, plain.rates, traced.rates)
	snaps := []metrics.Snapshot{tp[0].mc.Snapshot(), tp[1].mc.Snapshot()}
	counterLayers(out.layer, []*harness.Result{{Metrics: metrics.Group{Procs: snaps}}})
	spanLayers(out.layer, exchanges, speed, tp[0].tr, tp[1].tr)
	return nil
}

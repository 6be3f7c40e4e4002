package main

// The three simulated workloads. Each pass plays a fixed list of games
// derived from the workload seed, one game at a time through harness.Run;
// the virtual-clock metrics come from the first pass, and every later pass
// (and the traced run) must reproduce its outputs exactly.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sdso/internal/game"
	"sdso/internal/harness"
	"sdso/internal/metrics"
	"sdso/internal/wire"
)

// simWorkload describes one simulated workload.
type simWorkload struct {
	name string
	// seeds is how many game seeds one pass uses.
	seeds int
	// games lists one pass's games for the derived seeds.
	games func(seeds []int64) []harness.Config
	// setupReps is how many times set-up is timed; setup_s is the median.
	setupReps int
	// check judges one game's outputs beyond "no error, deterministic".
	check func(harness.Config, *harness.Result) error
	// sensitivity is how closely the games' host time follows the
	// machine's speed as the calibration kernel sees it: a game's time,
	// and a set-up rep's, is scaled by speed^sensitivity. See README.md,
	// Host speed.
	sensitivity float64
}

// paperGrid is the paper's evaluation grid: {BSYNC, MSYNC, MSYNC2, EC} x
// n in {2,4,8,16} x range {1,3}, first-goal race, 200-tick cap.
var paperGrid = simWorkload{
	name:  "paper-grid",
	seeds: 24,
	games: func(seeds []int64) []harness.Config {
		var out []harness.Config
		for _, seed := range seeds {
			for _, p := range harness.PaperProtocols {
				for _, n := range harness.PaperNs {
					for _, rng := range []int{1, 3} {
						g := game.DefaultConfig(n, rng)
						g.Seed = seed
						g.MaxTicks = 200
						g.EndOnFirstGoal = true
						out = append(out, harness.Config{Game: g, Protocol: p})
					}
				}
			}
		}
		return out
	},
	setupReps:   15,
	check:       checkPlayed,
	sensitivity: 1,
}

// crowd is BSYNC with delta encoding, 4-tick batching and interest
// management on the 256-player fixed-density world. Two seeds: its peak
// heap differs by up to a quarter from one seed to the next.
var crowd = simWorkload{
	name:  "crowd-n256",
	seeds: 2,
	games: func(seeds []int64) []harness.Config {
		var out []harness.Config
		for _, seed := range seeds {
			g := harness.InterestWorld(256)
			g.Seed = seed
			out = append(out, harness.Config{Game: g, Protocol: harness.BSYNC, DeltaEncode: true, MaxBatchTicks: 4, Interest: true})
		}
		return out
	},
	setupReps: 5,
	check:     checkCrowd,
	// Over ten runs on the reference machine its games' wall time moved
	// with the 0.56th power of the kernel's speed, and spread least when
	// scaled by the 0.4th to 0.5th: with a 1.5 GiB heap, more of its time
	// waits on memory, which the drift slows less than it slows the
	// kernel's in-cache map updates. Its one-tick set-up games build the
	// same stores, about 0.7 GiB of heap.
	sensitivity: 0.5,
}

// mesh is plain full-membership BSYNC on the 128-player world.
var mesh = simWorkload{
	name:  "mesh-n128",
	seeds: 2,
	games: func(seeds []int64) []harness.Config {
		var out []harness.Config
		for _, seed := range seeds {
			g := harness.InterestWorld(128)
			g.Seed = seed
			out = append(out, harness.Config{Game: g, Protocol: harness.BSYNC})
		}
		return out
	},
	setupReps:   3,
	check:       checkReference,
	sensitivity: 1, // not measured: mesh-n128 is not in BENCHMARK.json
}

// checkPlayed requires an outcome for every team and some play. In the
// first-goal race a team can legitimately finish without a tick of its own
// (an EC team still waiting for its first lock when another team wins).
func checkPlayed(cfg harness.Config, res *harness.Result) error {
	if len(res.Stats) != cfg.Game.Teams {
		return fmt.Errorf("%d team outcomes for %d teams", len(res.Stats), cfg.Game.Teams)
	}
	for _, s := range res.Stats {
		if s.Ticks > 0 {
			return nil
		}
	}
	return errors.New("no team played a tick")
}

// checkCrowd requires every team to have finished (goal, destruction or
// the tick cap) and no delta base mismatch. Batching legitimately
// diverges from the sequential reference, so the reference is no check
// here; repeat determinism is checked by the pass loop.
func checkCrowd(cfg harness.Config, res *harness.Result) error {
	if err := checkPlayed(cfg, res); err != nil {
		return err
	}
	for _, s := range res.Stats {
		if !s.ReachedGoal && !s.Destroyed && s.Ticks < cfg.Game.MaxTicks {
			return fmt.Errorf("team %d not terminal after %d ticks", s.Team, s.Ticks)
		}
	}
	if m := res.Metrics.DeltaMismatches(); m != 0 {
		return fmt.Errorf("%d delta base mismatches", m)
	}
	return nil
}

// checkReference requires every team's outcome to equal the sequential
// reference game's.
func checkReference(cfg harness.Config, res *harness.Result) error {
	if err := checkPlayed(cfg, res); err != nil {
		return err
	}
	ref, err := game.RunReference(cfg.Game)
	if err != nil {
		return fmt.Errorf("reference game: %w", err)
	}
	bad := 0
	first := ""
	for i, want := range ref.Stats {
		got := res.Stats[i]
		if got.Mods != want.Mods || got.Ticks != want.Ticks || got.Score != want.Score ||
			got.ReachedGoal != want.ReachedGoal || got.Destroyed != want.Destroyed {
			if bad == 0 {
				first = fmt.Sprintf("team %d: got %+v, reference %+v", i, got, want)
				if got.Destroyed != want.Destroyed && want.DoneTick == int64(cfg.Game.MaxTicks) {
					first += " (destroyed in the final tick; the lookahead player looks for its own" +
						" destruction only at the start of the next tick)"
				}
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d teams differ from the reference; %s", bad, len(ref.Stats), first)
	}
	return nil
}

// digest fingerprints a game's virtual outputs: team outcomes, every
// process's counters and category times, and the virtual duration.
func digest(res *harness.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, res.Stats, res.Metrics.Procs, res.VirtualDuration)
	return h.Sum64()
}

// passResult is one pass's games.
type passResult struct {
	digests   []uint64
	results   []*harness.Result // kept for the first pass only
	procTicks int
	games     []gameCost // every played game's host cost
}

// gameCost is one played game's host cost.
type gameCost struct {
	at    interval
	ticks int     // process-ticks
	alloc float64 // heap bytes allocated per process-tick
}

// playPass plays games in order, judging each against ref (the first
// pass's digests) when ref is non-nil, and returns what it played. A game
// that errors or fails a check is recorded on out and the pass goes on.
func playPass(w simWorkload, games []harness.Config, ref []uint64, keep bool, out *outcome) passResult {
	pr := passResult{digests: make([]uint64, len(games))}
	if keep {
		pr.results = make([]*harness.Result, len(games))
	}
	for i, cfg := range games {
		out.attempted++
		h0 := readHeap()
		t0 := time.Now()
		res, err := harness.Run(cfg)
		at := interval{t0, time.Now()}
		alloc := readHeap().sub(h0)
		if err != nil {
			out.fail("%s game %d (%s n=%d seed=%d): %v", w.name, i, cfg.Protocol, cfg.Game.Teams, cfg.Game.Seed, err)
			continue
		}
		pr.digests[i] = digest(res)
		if ref != nil && pr.digests[i] != ref[i] {
			out.fail("%s game %d (%s n=%d seed=%d): virtual outputs differ from the first pass", w.name, i, cfg.Protocol, cfg.Game.Teams, cfg.Game.Seed)
		}
		ticks := 0
		for _, s := range res.Metrics.Procs {
			ticks += s.Ticks
		}
		pr.procTicks += ticks
		if ticks > 0 {
			pr.games = append(pr.games, gameCost{at, ticks, float64(alloc.bytes) / float64(ticks)})
		}
		if keep {
			pr.results[i] = res
		}
	}
	return pr
}

// checkPass applies the workload's output check to a kept pass.
func checkPass(w simWorkload, games []harness.Config, pr passResult, out *outcome) {
	for i, res := range pr.results {
		if res == nil {
			continue
		}
		if err := w.check(games[i], res); err != nil {
			out.fail("%s game %d (%s n=%d seed=%d): %v", w.name, i, games[i].Protocol, games[i].Game.Teams, games[i].Game.Seed, err)
		}
	}
}

// measured is what a sequence of passes cost on the host. Every game
// counts once, however long it ran: in the first-goal race a rare game
// whose tanks never reach the goal plays ten times the ticks of a typical
// one, and would dominate pooled totals.
type measured struct {
	passes    int
	procTicks int
	heap      heapCount
	games     []gameCost
	at        interval // first pass start to last pass end
}

// host returns, one per game played, its process-ticks per second and
// host µs per process-tick (sorted), each scaled by the machine's speed
// while it ran (to the power sensitivity), and its heap bytes per
// process-tick.
func (m measured) host(cal *calibrator, sensitivity float64) (rates, us, alloc []float64) {
	for _, g := range m.games {
		sec := g.at.seconds() * math.Pow(cal.speed(g.at.a, g.at.b), sensitivity)
		rates = append(rates, float64(g.ticks)/sec)
		us = append(us, sec*1e6/float64(g.ticks))
		alloc = append(alloc, g.alloc)
	}
	sort.Float64s(us)
	return rates, us, alloc
}

// timePasses plays passes within budget. The first pass's games are kept
// when ref is nil (it becomes the reference); later passes are compared
// against the reference.
func timePasses(w simWorkload, games []harness.Config, budget time.Duration, ref *passResult, out *outcome) (measured, error) {
	var m measured
	h0 := readHeap()
	passes, err := passLoop(budget, func(i int) error {
		var pr passResult
		if ref.digests == nil {
			*ref = playPass(w, games, nil, true, out)
			pr = *ref
		} else {
			pr = playPass(w, games, ref.digests, false, out)
		}
		if pr.procTicks == 0 {
			return errors.New("a pass played no process-ticks")
		}
		m.passes++
		m.procTicks += pr.procTicks
		m.games = append(m.games, pr.games...)
		return nil
	})
	m.heap = readHeap().sub(h0)
	if len(passes) > 0 {
		m.at = interval{passes[0].a, passes[len(passes)-1].b}
	}
	return m, err
}

// timeSetup times set-up reps: each plays the first seed's games stopped
// after one tick, after a full garbage collection so that no rep pays for
// the previous one's heap. It returns the median per-game wall time in
// seconds, each rep scaled like the workload's games.
func timeSetup(w simWorkload, seeds []int64, cal *calibrator, out *outcome) float64 {
	games := w.games(seeds[:1])
	for i := range games {
		games[i].Game.MaxTicks = 1
	}
	var reps []interval
	var ref []uint64
	for rep := 0; rep < w.setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		pr := playPass(w, games, ref, false, out)
		reps = append(reps, interval{t0, time.Now()})
		if ref == nil {
			ref = pr.digests
		}
	}
	return medianScaled(reps, cal, w.sensitivity) / float64(len(games))
}

// probeTicks is how long probeRepeat cuts a game: two of crowd-n256's
// 4-tick batches.
const probeTicks = 8

// probeRepeat stands in for the pass-to-pass check when the budget held
// one pass (a crowd-n256 pass is two 10-20 s games): it plays cfg, cut
// to probeTicks, twice, and requires the same virtual outputs. It is not
// timed.
func probeRepeat(w simWorkload, cfg harness.Config, out *outcome) {
	cfg.Game.MaxTicks = min(cfg.Game.MaxTicks, probeTicks)
	games := []harness.Config{cfg}
	first := playPass(w, games, nil, false, out)
	playPass(w, games, first.digests, false, out)
}

// runSim returns the run function of a simulated workload.
func runSim(w simWorkload) func(opts) (*outcome, error) {
	return func(o opts) (*outcome, error) {
		seeds := deriveSeeds(o.seed, w.seeds)
		games := w.games(seeds)
		fmt.Fprintf(o.log, "# game seeds %v, %d games per pass\n", seeds, len(games))
		out := &outcome{}
		defer o.cal.background()()
		if o.trace {
			return out, tracedSim(w, games, o, out)
		}
		setup := timeSetup(w, seeds, o.cal, out)
		var ref passResult
		m, err := timePasses(w, games, o.budget, &ref, out)
		if err != nil {
			return nil, err
		}
		checkPass(w, games, ref, out)
		if m.passes < 2 {
			probeRepeat(w, games[0], out)
		}
		fmt.Fprintf(o.log, "# %d passes, %d games timed\n", m.passes, len(m.games))
		rates, us, alloc := m.host(o.cal, w.sensitivity)
		v := virtualOf(ref.results)
		out.e2e = map[string]float64{
			"ms_per_mod":           v.msPerMod,
			"msgs_per_tick":        v.msgsPerTick,
			"bytes_per_mod":        v.bytesPerMod,
			"proc_ticks_per_s":     median(rates),
			"alloc_bytes_per_tick": median(alloc),
			"heap_sys_mb":          heapSysMB(),
			"setup_s":              setup,
			"exchange_p50_us":      percentile(us, 0.50),
			"exchange_p99_us":      percentile(us, 0.99),
		}
		return out, nil
	}
}

// tracedSim plays the workload untraced and then traced for half the
// budget each, asserts that the traced games' virtual outputs equal the
// untraced ones, and attributes the traced passes' CPU profile by layer.
func tracedSim(w simWorkload, games []harness.Config, o opts, out *outcome) error {
	var ref passResult
	plain, err := timePasses(w, games, o.budget/2, &ref, out)
	if err != nil {
		return err
	}
	checkPass(w, games, ref, out)
	out.layer = map[string]float64{}
	counterLayers(out.layer, ref.results)
	ref.results = nil

	path := filepath.Join(o.outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", w.name, o.seed))
	var traced measured
	prof, err := profileRun(path, func() (err error) {
		traced, err = timePasses(w, games, o.budget/2, &ref, out)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(o.log, "# CPU profile %s; %d untraced and %d traced passes\n", path, plain.passes, traced.passes)
	plainRates, _, _ := plain.host(o.cal, w.sensitivity)
	tracedRates, _, _ := traced.host(o.cal, w.sensitivity)
	speed := math.Pow(o.cal.speed(traced.at.a, traced.at.b), w.sensitivity)
	prof.fill(out.layer, traced.procTicks, speed, traced.heap, plainRates, tracedRates)
	spanLayers(out.layer, 0, 1) // the span metrics apply to tcp-pair only
	return nil
}

// virtual is a pass's virtual-clock summary: each metric is a per-game
// ratio averaged over the games, as Figure 5 averages normalized times.
type virtual struct {
	msPerMod, msgsPerTick, bytesPerMod float64
}

func virtualOf(results []*harness.Result) virtual {
	var v virtual
	for _, res := range results {
		if res == nil {
			continue
		}
		var msgs, bytes, mods, ticks int
		for _, s := range res.Metrics.Procs {
			msgs += s.TotalMsgs()
			bytes += s.BytesSent
			mods += s.Mods
			ticks += s.Ticks
		}
		n := float64(len(results))
		v.msPerMod += harness.MetricNormalizedTime(res) / n
		v.msgsPerTick += ratio(float64(msgs), float64(ticks)) / n
		v.bytesPerMod += ratio(float64(bytes), float64(mods)) / n
	}
	return v
}

// counterLayers derives the per-layer counter metrics from the program's
// own metrics.Group counters over one pass's games.
func counterLayers(m map[string]float64, results []*harness.Result) {
	var ticks, msgs, data, syncs, piggy, retrans, bytes, deltas, saved, mismatch, batched, churn, fetches, peak int
	var exec, exch, ecExec time.Duration
	var ecCat [3]time.Duration
	ecCats := [3]metrics.Category{metrics.CatLockAcquire, metrics.CatObjPull, metrics.CatLockRelease}
	for _, res := range results {
		if res == nil {
			continue
		}
		g := res.Metrics
		if p := g.InterestSetPeak(); p > peak {
			peak = p
		}
		churn += g.InterestChurn()
		fetches += g.InterestFetches()
		deltas += g.DeltaRecords()
		saved += g.DeltaBytesSaved()
		mismatch += g.DeltaMismatches()
		batched += g.TicksBatched()
		retrans += g.Retransmits()
		piggy += g.PiggybackedSyncs()
		for _, s := range g.Procs {
			ticks += s.Ticks
			msgs += s.TotalMsgs()
			data += s.DataMsgs()
			syncs += s.MsgsSent[wire.KindSync]
			bytes += s.BytesSent
			exec += s.ExecTime
			exch += s.Durations[metrics.CatExchange]
			if res.Config.Protocol == harness.EC {
				ecExec += s.ExecTime
				for i, c := range ecCats {
					ecCat[i] += s.Durations[c]
				}
			}
		}
	}
	t := float64(ticks)
	m["interest.set_peak"] = float64(peak)
	m["interest.churn_per_tick"] = ratio(float64(churn), t)
	m["interest.fetches_per_tick"] = ratio(float64(fetches), t)
	m["diff.delta_records_per_tick"] = ratio(float64(deltas), t)
	m["diff.delta_saved_pct"] = 100 * ratio(float64(saved), float64(bytes+saved))
	m["diff.delta_mismatches"] = float64(mismatch)
	m["lookahead.ticks_batched_pct"] = 100 * ratio(float64(batched), t)
	m["core.data_msgs_per_tick"] = ratio(float64(data), t)
	m["core.sync_msgs_per_tick"] = ratio(float64(syncs), t)
	m["core.piggyback_pct"] = 100 * ratio(float64(piggy), float64(syncs))
	m["core.retransmits"] = float64(retrans)
	m["wire.bytes_per_msg"] = ratio(float64(bytes), float64(msgs))
	m["core.exchange_wait_pct"] = 100 * ratio(float64(exch), float64(exec))
	m["ec.lock_acquire_pct"] = 100 * ratio(float64(ecCat[0]), float64(ecExec))
	m["ec.obj_pull_pct"] = 100 * ratio(float64(ecCat[1]), float64(ecExec))
	m["ec.lock_release_pct"] = 100 * ratio(float64(ecCat[2]), float64(ecExec))
}

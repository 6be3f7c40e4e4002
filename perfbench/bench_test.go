package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/harness"
	"sdso/internal/store"
)

// A tampered team outcome must fail the reference check and change the
// digest the determinism check compares.
func TestChecksCatchTamperedOutcome(t *testing.T) {
	// Four teams on the paper's world with its 500-tick cap: every team
	// finishes by goal or destruction well before the cap.
	g := game.DefaultConfig(4, 1)
	g.Seed = 3
	cfg := harness.Config{Game: g, Protocol: harness.BSYNC}
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReference(cfg, res); err != nil {
		t.Fatalf("untampered game: %v", err)
	}
	before := digest(res)
	for _, tamper := range []func(*game.TeamStats){
		func(s *game.TeamStats) { s.Score++ },
		func(s *game.TeamStats) { s.Destroyed = !s.Destroyed },
		func(s *game.TeamStats) { s.Mods-- },
	} {
		saved := res.Stats[1]
		tamper(&res.Stats[1])
		if err := checkReference(cfg, res); err == nil {
			t.Errorf("reference check missed tampered outcome %+v", res.Stats[1])
		}
		if digest(res) == before {
			t.Errorf("digest missed tampered outcome %+v", res.Stats[1])
		}
		res.Stats[1] = saved
	}
}

// A replica that diverges by one byte, or a lost last write, must fail
// the tcp-pair check.
func TestCheckReplicasCatchesFlippedByte(t *testing.T) {
	sc, err := recordScript(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPair(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if err := p.play(); err != nil {
		t.Fatal(err)
	}
	a, b := p[0].rt.Store(), p[1].rt.Store()
	last := [2]map[store.ID]lastWrite{p[0].last, p[1].last}
	if err := checkReplicas(a, b, last); err != nil {
		t.Fatalf("untampered replicas: %v", err)
	}
	// An object whose last write was side 0's.
	var id store.ID
	var w lastWrite
	for k, v := range p[0].last {
		if v.tick > p[1].last[k].tick {
			id, w = k, v
			break
		}
	}
	if w.v == nil {
		t.Fatal("side 0 wrote no object last")
	}
	data, err := b.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := b.Version(id)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[0] ^= 1
	if err := b.SetState(id, flipped, ver); err != nil {
		t.Fatal(err)
	}
	if err := checkReplicas(a, b, last); err == nil {
		t.Error("replica check missed a flipped byte")
	}
	if err := b.SetState(id, data, ver); err != nil {
		t.Fatal(err)
	}
	lost := map[store.ID]lastWrite{}
	for k, v := range p[0].last {
		lost[k] = v
	}
	lost[id] = lastWrite{w.tick, cellValue(game.Cell{Kind: game.Bonus}, 1<<20)}
	if err := checkReplicas(a, b, [2]map[store.ID]lastWrite{lost, p[1].last}); err == nil {
		t.Error("replica check missed a lost last write")
	}
}

// The script reads every kind of action back from a game's action log.
func TestParseActionReadsTraceAction(t *testing.T) {
	for _, want := range []game.Action{
		{Kind: game.Move, From: game.Pos{X: 3, Y: 17}, To: game.Pos{X: 4, Y: 17}},
		{Kind: game.Fire, Target: game.Pos{X: 0, Y: 23}},
		{Kind: game.Stay},
		{Kind: game.Stay, Suppressed: true},
	} {
		tick, got, err := parseAction(game.TraceAction(42, want))
		want.Suppressed = false // the script needs no more than the writes
		if err != nil || tick != 42 || got != want {
			t.Errorf("parseAction(%q) = %d, %+v, %v", game.TraceAction(42, want), tick, got, err)
		}
	}
}

// go.mallocs_per_tick counts allocations, so the machine's speed, which
// scales the time metrics, must not move it.
func TestFillScalesOnlyTimes(t *testing.T) {
	a := attribution{ns: map[string]float64{"core": 1000}, total: 1000}
	heap := heapCount{objects: 500}
	slow, fast := map[string]float64{}, map[string]float64{}
	a.fill(slow, 100, 0.5, heap, []float64{1}, []float64{1})
	a.fill(fast, 100, 2, heap, []float64{1}, []float64{1})
	if slow["go.mallocs_per_tick"] != 5 || fast["go.mallocs_per_tick"] != 5 {
		t.Errorf("mallocs per tick %v at speed 0.5 and %v at speed 2, want 5", slow["go.mallocs_per_tick"], fast["go.mallocs_per_tick"])
	}
	if slow["core.self_ns_per_tick"] != 5 || fast["core.self_ns_per_tick"] != 20 {
		t.Errorf("core ns per tick %v at speed 0.5 and %v at speed 2, want 5 and 20", slow["core.self_ns_per_tick"], fast["core.self_ns_per_tick"])
	}
}

func TestChargeTo(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1_fast32", "sdso/internal/store.(*Store).Get", "sdso/internal/core.(*Runtime).Exchange"}, "store"},
		{[]string{"runtime.mallocgc", "sdso/internal/netmodel.(*Cluster).Deliver", "sdso/internal/vtime.(*Sim).Run"}, "vtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "sdso/internal/core.(*Runtime).Write"}, "go.gc"},
		{[]string{"syscall.Syscall", "sdso/internal/transport.(*TCPEndpoint).Flush", "sdso/perfbench.(*timedEP).Flush", "sdso/internal/core.(*Runtime).flush"}, "transport"},
		{[]string{"sdso/perfbench.(*side).play"}, "other"},
		{[]string{"sdso/internal/xlist.Merge[go.shape.int]", "sdso/internal/core.x"}, "xlist"},
		{[]string{"sdso/internal/lockmgr.(*Manager).Grant"}, "ec"},
		{[]string{"runtime.futex"}, "other"},
	} {
		if got := chargeTo(c.frames); got != c.want {
			t.Errorf("chargeTo(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// A traced run decodes its own CPU profile and reports every per-layer
// metric, and an untraced run every end-to-end metric.
func TestRunReportsEveryMetric(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		code := run([]string{"--workload", "tcp-pair", "--seed", "2", "--seconds", "1", "--trace", traced, "-out", t.TempDir()}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s%s", traced, code, out.String(), errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		specs := endToEnd
		if traced == "1" {
			specs = perLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(specs) {
			t.Errorf("trace %s: correct=%v failed=%d attempted=%d, %d metrics for %d specs",
				traced, res.Correct, res.Failed, res.Attempted, len(res.Metrics), len(specs))
		}
		if traced == "1" && res.Metrics["core.write_ns"].Value <= 0 {
			t.Errorf("traced tcp-pair reported no Write spans")
		}
	}
}

// BENCHMARK.json must list exactly the metrics the driver reports, with
// the same units and directions, and only workloads it knows.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s unknown to the driver", w.Name)
		}
	}
	for _, c := range []struct {
		listed []metric
		specs  []spec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.specs) {
			t.Errorf("BENCHMARK.json lists %d metrics, driver reports %d", len(c.listed), len(c.specs))
			continue
		}
		for i, m := range c.listed {
			s := c.specs[i]
			if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, driver reports %s %s %s", i, m, s.name, s.unit, s.better)
			}
		}
	}
}

func TestCompareSortsByRelativeChange(t *testing.T) {
	parent := "# workload crowd-n256 seed 1 trace 1\n" +
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"core.self_ns_per_tick":{"value":100,"unit":"ns/tick"},"store.self_ns_per_tick":{"value":50,"unit":"ns/tick"}}}` + "\n"
	change := "# workload crowd-n256 seed 1 trace 1\n" +
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"core.self_ns_per_tick":{"value":110,"unit":"ns/tick"},"store.self_ns_per_tick":{"value":25,"unit":"ns/tick"}}}` + "\n"
	p, err := readRuns(strings.NewReader(parent))
	if err != nil {
		t.Fatal(err)
	}
	c, err := readRuns(strings.NewReader(change))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareRuns(p, c, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	store, core := strings.Index(s, "store.self_ns_per_tick"), strings.Index(s, "core.self_ns_per_tick")
	if store < 0 || core < 0 || store > core {
		t.Errorf("want store (-50%%) listed before core (+10%%):\n%s", s)
	}
}

func TestPassLoopStopsWithinBudget(t *testing.T) {
	passes, err := passLoop(50*time.Millisecond, func(int) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, iv := range passes {
		total += iv.b.Sub(iv.a)
	}
	if len(passes) < 2 || total > 80*time.Millisecond {
		t.Errorf("%d passes taking %v for a 50ms budget", len(passes), total)
	}
}

// speed judges an interval by the kernel runs in the window around it,
// and falls back to every run when the window holds none.
func TestCalibratorSpeedWindow(t *testing.T) {
	c := newCalibrator()
	for i := int64(0); i < 10; i++ { // a slow second: twice the reference time
		c.at = append(c.at, i*int64(100*time.Millisecond))
		c.dur = append(c.dur, 2*calRefNs)
	}
	for i := int64(0); i < 10; i++ { // then a fast one
		c.at = append(c.at, int64(5*time.Second)+i*int64(100*time.Millisecond))
		c.dur = append(c.dur, calRefNs/2)
	}
	at := func(d time.Duration) time.Time { return c.base.Add(d) }
	if s := c.speed(at(200*time.Millisecond), at(500*time.Millisecond)); s != 0.5 {
		t.Errorf("slow stretch: speed %v, want 0.5", s)
	}
	if s := c.speed(at(5200*time.Millisecond), at(5300*time.Millisecond)); s != 2 {
		t.Errorf("fast stretch: speed %v, want 2", s)
	}
	// The median of every run is 50 µs, between the two stretches' 80 and 20.
	if s := c.speed(at(3*time.Second), at(3*time.Second)); s != 0.8 {
		t.Errorf("empty window: speed %v, want 0.8 from every run", s)
	}
}

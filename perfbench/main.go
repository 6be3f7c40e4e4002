// Command perfbench is the repository's benchmark. It plays one workload
// (three simulated game workloads and one loopback TCP pair), checks every
// output, and prints each metric by name with its unit and clock. The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics. With -compare it instead reads
// two saved traced outputs and prints every per-layer delta. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec describes one reported metric. Clock names the time base a value
// comes from: "virtual" is the vtime + netmodel simulator, "host" is the
// CPU the benchmark process burns, "real" is wall time on real sockets.
type spec struct {
	name, unit, better, clock string
}

// endToEnd are the untraced run's metrics, reported on every workload.
// Where a metric is defined for one workload only, the others report
// another measurement re-expressed in its unit (see README.md).
var endToEnd = []spec{
	{"ms_per_mod", "ms", "lower", "virtual; tcp-pair: real"},
	{"msgs_per_tick", "msgs", "lower", "virtual; tcp-pair: real"},
	{"bytes_per_mod", "B", "lower", "virtual; tcp-pair: real"},
	{"proc_ticks_per_s", "1/s", "higher", "host"},
	{"alloc_bytes_per_tick", "B", "lower", "host"},
	{"heap_sys_mb", "MiB", "lower", "host"},
	{"setup_s", "s", "lower", "host"},
	{"exchange_p50_us", "us", "lower", "real per Exchange on tcp-pair; elsewhere host per process-tick of a game (1e6/proc_ticks_per_s)"},
	{"exchange_p99_us", "us", "lower", "real per Exchange on tcp-pair; elsewhere host per process-tick of a game (1e6/proc_ticks_per_s)"},
}

// perLayer are the traced run's metrics. A metric that cannot apply to a
// workload reads 0.
var perLayer = []spec{
	{"core.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"store.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"vtime.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"xlist.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"diff.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"interest.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"ec.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"game.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"lookahead.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"wire.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"transport.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"metrics.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"trace.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"other.self_ns_per_tick", "ns/tick", "lower", "host"},
	{"go.gc_ns_per_tick", "ns/tick", "lower", "host"},
	{"go.map_pct", "%", "lower", "host"},
	{"go.mallocs_per_tick", "count/tick", "lower", "host"},
	{"trace_overhead_pct", "%", "lower", "host"},
	{"interest.set_peak", "count", "lower", "virtual"},
	{"interest.churn_per_tick", "count/tick", "lower", "virtual"},
	{"interest.fetches_per_tick", "count/tick", "lower", "virtual"},
	{"diff.delta_records_per_tick", "count/tick", "higher", "virtual"},
	{"diff.delta_saved_pct", "%", "higher", "virtual"},
	{"diff.delta_mismatches", "count", "lower", "virtual"},
	{"lookahead.ticks_batched_pct", "%", "higher", "virtual"},
	{"core.data_msgs_per_tick", "msgs/tick", "lower", "virtual"},
	{"core.sync_msgs_per_tick", "msgs/tick", "lower", "virtual"},
	{"core.piggyback_pct", "%", "higher", "virtual"},
	{"core.retransmits", "count", "lower", "virtual"},
	{"wire.bytes_per_msg", "B/msg", "lower", "virtual"},
	{"core.exchange_wait_pct", "%", "lower", "virtual"},
	{"ec.lock_acquire_pct", "%", "lower", "virtual"},
	{"ec.obj_pull_pct", "%", "lower", "virtual"},
	{"ec.lock_release_pct", "%", "lower", "virtual"},
	{"transport.send_ns", "ns", "lower", "real"},
	{"transport.flush_ns", "ns", "lower", "real"},
	{"transport.recv_wait_us", "us", "lower", "real"},
	{"transport.frames_per_flush", "frames/flush", "higher", "real"},
	{"transport.wire_bytes_per_exchange", "B", "lower", "real"},
	{"core.write_ns", "ns", "lower", "real"},
	{"core.exchange_self_us", "us", "lower", "real"},
}

// workload is one named input set. run plays it under opts and returns
// the metrics it measured. README.md gives the reason for each.
type workload struct {
	name string
	run  func(opts) (*outcome, error)
}

var workloads = []workload{
	{"paper-grid", runSim(paperGrid)},
	{"crowd-n256", runSim(crowd)},
	{"mesh-n128", runSim(mesh)},
	{"tcp-pair", runTCPPair},
}

// opts are one invocation's settings.
type opts struct {
	seed   int64
	budget time.Duration
	trace  bool
	outDir string // where a traced run leaves its CPU profile and spans
	log    io.Writer
	cal    *calibrator // scales host-clock times by the machine's speed
}

// outcome is what one workload run measured: e2e holds the end-to-end
// metrics of an untraced run, layer the per-layer metrics of a traced one.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
}

// fail records one failed game or exchange; only the first few messages
// are kept for the log.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; game seeds and write sequences derive from it")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for a traced run's CPU profile and spans")
	compare := fs.Bool("compare", false, "compare two saved traced outputs given as arguments: parent change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench -compare needs two files: parent change")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	o := opts{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		trace:  *traced == 1,
		outDir: *outDir,
		log:    stdout,
	}
	if o.trace {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	// Every workload runs on one P. The vtime simulator runs one simulated
	// process at a time, so a second P would only host GC workers, hiding
	// their cost from wall time. In tcp-pair the hand-offs between the two
	// runtimes and their read loops then stay goroutine switches on one
	// CPU; cross-CPU wake-ups made its latency swing several-fold from
	// run to run on a shared host.
	runtime.GOMAXPROCS(1)
	fmt.Fprintf(stdout, "# workload %s seed %d trace %d\n", w.name, o.seed, *traced)
	fmt.Fprintf(stdout, "# machine %s num_cpu=%d gomaxprocs=%d\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	o.cal = newCalibrator()
	out, err := w.run(o)
	fmt.Fprintf(stdout, "# speed %.3f of the reference machine (median; host-clock metrics are scaled by it)\n", o.cal.overall())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return report(out, o.trace, stdout, stderr)
}

// report prints the metric lines and the closing JSON object, and turns
// any failed output check into a non-zero exit.
func report(out *outcome, traced bool, stdout, stderr io.Writer) int {
	specs, vals := endToEnd, out.e2e
	if traced {
		specs, vals = perLayer, out.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, map[string]metric{}}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: internal error: metric %s not measured\n", s.name)
			return 1
		}
		res.Metrics[s.name] = metric{v, s.unit}
		fmt.Fprintf(stdout, "%-36s %14.6g %-12s %s\n", s.name, v, s.unit, s.clock)
	}
	fail := 0.0
	if out.attempted > 0 {
		fail = 100 * float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(stdout, "%-36s %14.6g %-12s %d of %d attempted\n", "fail_pct", fail, "%", out.failed, out.attempted)
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "# FAIL", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if out.failed > 0 || out.attempted == 0 {
		return 1
	}
	return 0
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// deriveSeeds expands the workload seed into k game seeds (splitmix64),
// kept positive and short so they read well in the log.
func deriveSeeds(seed int64, k int) []int64 {
	out := make([]int64, k)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z%1_000_000) + 1
	}
	return out
}

// interval is a stretch of wall time.
type interval struct{ a, b time.Time }

func (iv interval) seconds() float64 { return iv.b.Sub(iv.a).Seconds() }

// medianScaled is the median of the intervals' lengths in seconds, each
// scaled by the machine's speed while it ran, to the power sensitivity.
func medianScaled(ivs []interval, cal *calibrator, sensitivity float64) float64 {
	xs := make([]float64, len(ivs))
	for i, iv := range ivs {
		xs[i] = iv.seconds() * math.Pow(cal.speed(iv.a, iv.b), sensitivity)
	}
	return median(xs)
}

// passLoop runs pass repeatedly, at least once, and stops before a pass
// that would end past budget (judged by the previous pass's length). It
// returns when each pass ran. Each pass starts after a full garbage
// collection, so no pass inherits another's garbage.
func passLoop(budget time.Duration, pass func(i int) error) ([]interval, error) {
	var passes []interval
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := pass(i); err != nil {
			return passes, err
		}
		iv := interval{t0, time.Now()}
		passes = append(passes, iv)
		if iv.b.Sub(start)+iv.b.Sub(iv.a) > budget {
			return passes, nil
		}
	}
}

// median returns the middle value (mean of the two middle values).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*p)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// ratio is a/b, or 0 when b is 0 (a counter that cannot apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

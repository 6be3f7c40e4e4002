// Command bench runs the repo's benchmark suite (internal/benchsuite) —
// the figure regenerations, ablations, and substrate microbenchmarks — via
// testing.Benchmark and writes one machine-readable trajectory file with
// ns/op, allocs/op, and B/op for every benchmark, plus each benchmark's
// reported series metrics. The checked-in BENCH_PR4.json at the repo root
// was produced by this tool (BENCH_PR3.json is the previous trajectory);
// regenerate it with:
//
//	go run ./cmd/bench
//
// The delta-exchange and interest-management suites write their own
// trajectory files so the PR4 baseline stays byte-stable; regenerate
// BENCH_PR8.json with `go run ./cmd/bench -suite delta` and BENCH_PR9.json
// with `go run ./cmd/bench -suite interest`. BENCH_PR10.json is the
// record of the retired world-sharding suite; nothing regenerates it.
//
// Flags:
//
//	-suite name which suite to run: "all" (default; BENCH_PR4.json),
//	            "delta" (BENCH_PR8.json) or "interest" (BENCH_PR9.json)
//	-o file     output path (default depends on -suite)
//	-run substr only benchmarks whose name contains substr
//	-q          quiet: no per-benchmark progress on stderr
//	-check      verify the trajectory file covers the selected suite
//	            (exists and has a result for every benchmark) without
//	            running anything; CI fails the build on a stale file
//	-workers n  bound the figure sweeps' worker pool (sets GOMAXPROCS)
//	-cpuprofile file / -memprofile file
//	            write pprof profiles of the benchmark run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"sdso/internal/benchsuite"
)

// result is one benchmark's measurement in the trajectory file.
type result struct {
	Name        string `json:"name"`
	N           int    `json:"n"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Extra carries the series a figure benchmark reported through
	// b.ReportMetric (e.g. "MSYNC2_n16_msgs": 1234).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// trajectory is the top-level shape of BENCH_PR4.json.
type trajectory struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	// GoMaxProcs and SweepWorkers record the actual parallelism the run
	// had: NumCPU alone reads 1 in throttled CI containers and makes
	// trajectories hard to compare across machines. SweepWorkers is the
	// worker-pool bound the figure sweeps ran with (-workers, default
	// GOMAXPROCS).
	GoMaxProcs   int      `json:"gomaxprocs,omitempty"`
	SweepWorkers int      `json:"sweep_workers,omitempty"`
	Results      []result `json:"results"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	suiteName := fs.String("suite", "all", `which suite to run: "all", "delta" or "interest"`)
	out := fs.String("o", "", "output path for the trajectory JSON (default depends on -suite)")
	match := fs.String("run", "", "only benchmarks whose name contains this substring")
	quiet := fs.Bool("q", false, "suppress per-benchmark progress on stderr")
	check := fs.Bool("check", false, "verify the trajectory file covers the selected suite; run nothing")
	workers := fs.Int("workers", 0, "sweep worker-pool bound (sets GOMAXPROCS; 0 keeps the environment's)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			}
		}()
	}
	suite, defaultOut, err := selectSuite(*suiteName)
	if err != nil {
		return err
	}
	if *out == "" {
		*out = defaultOut
	}
	if *check {
		return checkTrajectory(*out, suite)
	}

	traj := trajectory{
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		SweepWorkers: runtime.GOMAXPROCS(0),
	}
	for _, bench := range suite {
		if *match != "" && !strings.Contains(bench.Name, *match) {
			continue
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s...\n", bench.Name)
		}
		r := testing.Benchmark(bench.F)
		if r.N == 0 {
			// testing.Benchmark returns a zero result when the benchmark
			// failed (b.Fatal); surface that instead of recording zeros.
			return fmt.Errorf("benchmark %s failed", bench.Name)
		}
		traj.Results = append(traj.Results, result{
			Name:        bench.Name,
			N:           r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Extra:       r.Extra,
		})
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  %d ops, %d ns/op, %d B/op, %d allocs/op\n",
				r.N, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp())
		}
	}
	if len(traj.Results) == 0 {
		return fmt.Errorf("no benchmarks matched %q", *match)
	}

	buf, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *out, len(traj.Results))
	}
	return nil
}

// selectSuite resolves a -suite name to its benchmark list and default
// trajectory file.
func selectSuite(name string) ([]benchsuite.Bench, string, error) {
	switch name {
	case "all":
		return benchsuite.All(), "BENCH_PR4.json", nil
	case "delta":
		return benchsuite.Delta(), "BENCH_PR8.json", nil
	case "interest":
		return benchsuite.Interest(), "BENCH_PR9.json", nil
	default:
		return nil, "", fmt.Errorf("unknown suite %q (want \"all\", \"delta\" or \"interest\")", name)
	}
}

// checkTrajectory verifies that the checked-in trajectory file is not stale
// relative to the selected suite: it must exist, parse, and hold a result
// for every benchmark the suite currently lists. A new or renamed benchmark
// without a regenerated file fails the check (and CI with it).
func checkTrajectory(path string, suite []benchsuite.Bench) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("trajectory file missing (regenerate with `go run ./cmd/bench`): %w", err)
	}
	var traj trajectory
	if err := json.Unmarshal(buf, &traj); err != nil {
		return fmt.Errorf("trajectory file %s is corrupt: %w", path, err)
	}
	have := make(map[string]bool, len(traj.Results))
	for _, r := range traj.Results {
		have[r.Name] = true
	}
	var missing []string
	for _, bench := range suite {
		if !have[bench.Name] {
			missing = append(missing, bench.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s is stale: missing benchmarks %s (regenerate with `go run ./cmd/bench`)",
			path, strings.Join(missing, ", "))
	}
	fmt.Printf("%s covers all %d suite benchmarks\n", path, len(suite))
	return nil
}

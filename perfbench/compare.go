package main

// Compare mode: read two saved traced outputs (the parent's and the
// change's; each file may hold the outputs of several workloads, one
// after another) and print, per workload, every per-layer metric's delta,
// largest relative change first. It answers "which layer got slower".

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// layerRuns maps workload -> metric -> value.
type layerRuns map[string]map[string]float64

// readRuns collects the metrics objects of every run in a saved output,
// keyed by the workload named on the run's "# workload" line.
func readRuns(r io.Reader) (layerRuns, error) {
	runs := layerRuns{}
	cur := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "workload" {
			cur = f[2]
			continue
		}
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res struct {
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, err
		}
		if cur == "" {
			return nil, fmt.Errorf("result line before any \"# workload\" line")
		}
		m := map[string]float64{}
		for k, v := range res.Metrics {
			m[k] = v.Value
		}
		runs[cur] = m
	}
	return runs, sc.Err()
}

func readRunsFile(path string) (layerRuns, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := readRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

func compareFiles(parentPath, changePath string, w io.Writer) error {
	parent, err := readRunsFile(parentPath)
	if err != nil {
		return err
	}
	change, err := readRunsFile(changePath)
	if err != nil {
		return err
	}
	return compareRuns(parent, change, w)
}

// compareRuns prints the deltas of every metric both sides report, per
// workload in name order.
func compareRuns(parent, change layerRuns, w io.Writer) error {
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload appears in both outputs")
	}
	sort.Strings(names)
	type row struct {
		metric              string
		parent, change, rel float64
	}
	for _, name := range names {
		var rows []row
		for metric, p := range parent[name] {
			c, ok := change[name][metric]
			if !ok {
				continue
			}
			rel := 0.0
			switch {
			case p != 0:
				rel = 100 * (c - p) / math.Abs(p)
			case c != 0:
				rel = math.Inf(1)
			}
			rows = append(rows, row{metric, p, c, rel})
		}
		sort.Slice(rows, func(i, j int) bool {
			ai, aj := math.Abs(rows[i].rel), math.Abs(rows[j].rel)
			if ai != aj {
				return ai > aj
			}
			return rows[i].metric < rows[j].metric
		})
		fmt.Fprintf(w, "## %s\n%-36s %14s %14s %14s %9s\n", name, "metric", "parent", "change", "delta", "delta%")
		for _, r := range rows {
			fmt.Fprintf(w, "%-36s %14.6g %14.6g %+14.6g %+8.1f%%\n", r.metric, r.parent, r.change, r.change-r.parent, r.rel)
		}
	}
	return nil
}

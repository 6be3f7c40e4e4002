package main

// Host-cost attribution. A traced run writes a CPU profile with the
// standard runtime/pprof; this file decodes it (the gzipped profile.proto
// format, read with a minimal protobuf walker so the benchmark needs only
// the standard library) and charges each sample to a layer: GC worker and
// assist samples to go.gc, every other sample to the innermost sdso
// package on its stack, so a map operation or an allocation counts
// against the package that caused it.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
)

// layerOf maps an sdso package path to the layer it is reported under.
var layerOf = map[string]string{
	"sdso/internal/core":               "core",
	"sdso/internal/store":              "store",
	"sdso/internal/vtime":              "vtime",
	"sdso/internal/netmodel":           "vtime",
	"sdso/internal/xlist":              "xlist",
	"sdso/internal/diff":               "diff",
	"sdso/internal/interest":           "interest",
	"sdso/internal/protocol/ec":        "ec",
	"sdso/internal/lockmgr":            "ec",
	"sdso/internal/quorum":             "ec",
	"sdso/internal/game":               "game",
	"sdso/internal/protocol/lookahead": "lookahead",
	"sdso/internal/wire":               "wire",
	"sdso/internal/transport":          "transport",
	"sdso/internal/metrics":            "metrics",
	"sdso/internal/trace":              "trace",
}

// layers lists every layer a sample can be charged to, besides go.gc.
var layers = []string{"core", "store", "vtime", "xlist", "diff", "interest", "ec", "game",
	"lookahead", "wire", "transport", "metrics", "trace", "other"}

// gcRoots are the runtime functions at the root of GC worker and assist
// stacks.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// mapLeaves are the leaf functions of Go map operations and key hashing.
var mapLeaves = []string{"runtime.map", "internal/runtime/maps.", "runtime.memhash", "runtime.aeshash",
	"runtime.strhash", "runtime.interhash", "runtime.nilinterhash", "runtime.typehash"}

// attribution is a CPU profile's time split by layer, in nanoseconds.
type attribution struct {
	ns           map[string]float64 // by layer, plus "go.gc"
	total, mapNs float64
}

// fill writes the traced run's host metrics: the profile's time per layer
// (scaled by the machine's speed while it ran) and the allocations (a
// count, not scaled), both per process-tick, and the throughput lost to
// tracing (median rates untraced versus traced).
func (a attribution) fill(m map[string]float64, procTicks int, speed float64, heap heapCount, plainRates, tracedRates []float64) {
	t := float64(procTicks) / speed
	for _, l := range layers {
		m[l+".self_ns_per_tick"] = ratio(a.ns[l], t)
	}
	m["go.gc_ns_per_tick"] = ratio(a.ns["go.gc"], t)
	m["go.map_pct"] = 100 * ratio(a.mapNs, a.total)
	m["go.mallocs_per_tick"] = ratio(float64(heap.objects), float64(procTicks))
	m["trace_overhead_pct"] = 100 * (1 - ratio(median(tracedRates), median(plainRates)))
}

// profileRun runs f under a CPU profile written to path and attributes
// the profile.
func profileRun(path string, f func() error) (attribution, error) {
	file, err := os.Create(path)
	if err != nil {
		return attribution{}, err
	}
	defer file.Close()
	if err := pprof.StartCPUProfile(file); err != nil {
		return attribution{}, err
	}
	err = f()
	pprof.StopCPUProfile()
	if err != nil {
		return attribution{}, err
	}
	if err := file.Close(); err != nil {
		return attribution{}, err
	}
	return attributeFile(path)
}

func attributeFile(path string) (attribution, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return attribution{}, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return attribution{}, fmt.Errorf("%s: %w", path, err)
	}
	return attribute(p), nil
}

// attribute charges every sample of p to one layer. The calibrator's own
// samples are left out.
func attribute(p *profile) attribution {
	a := attribution{ns: map[string]float64{}}
	for _, s := range p.samples {
		frames := p.frames(s.locs)
		if calibrating(frames) {
			continue
		}
		a.total += s.ns
		if len(frames) > 0 && hasPrefix(frames[0], mapLeaves) {
			a.mapNs += s.ns
		}
		a.ns[chargeTo(frames)] += s.ns
	}
	return a
}

// calibrating reports whether a stack is the calibrator's.
func calibrating(frames []string) bool {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.(*calibrator)") {
			return true
		}
	}
	return false
}

// chargeTo picks the layer a stack (innermost frame first) is charged to.
func chargeTo(frames []string) string {
	for _, f := range frames {
		if hasPrefix(f, gcRoots) {
			return "go.gc"
		}
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "sdso/") || strings.HasPrefix(f, "sdso/perfbench") {
			continue
		}
		if l, ok := layerOf[pkgOf(f)]; ok {
			return l
		}
		return "other"
	}
	return "other"
}

// pkgOf returns the package path of a fully qualified function name such
// as "sdso/internal/core.(*Runtime).Exchange".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func hasPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// profile is the part of a decoded profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs []uint64 // leaf first
	ns   float64
}

// frames resolves a sample's stack to function names, innermost first,
// with inlined calls expanded.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fn := range p.locations[l] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// parseProfile decodes a (possibly gzipped) CPU profile.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var raws []rawSample
	var typeNames []int64 // sample_type[i].type string indexes
	err := walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return walk(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walk(b, func(n int, v uint64, data []byte) error {
				switch n {
				case 1:
					s.locs = appendInts(s.locs, v, data)
				case 2:
					s.values = appendInts(s.values, v, data)
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(n int, v uint64, data []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walk(data, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := walk(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU time value is the sample type named "cpu"; fall back to the
	// last value.
	cpu := len(typeNames) - 1
	for i, s := range typeNames {
		if s >= 0 && int(s) < len(p.strings) && p.strings[s] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no sample types")
	}
	for _, s := range raws {
		if cpu < len(s.values) {
			p.samples = append(p.samples, sample{locs: s.locs, ns: float64(s.values[cpu])})
		}
	}
	return p, nil
}

// walk calls f for each field of a protobuf message: v carries varint and
// fixed-width values, b the payload of length-delimited fields.
func walk(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var b []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", typ)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field, packed (data non-nil) or
// not.
func appendInts(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// heapCount is the Go heap's cumulative allocation counters.
type heapCount struct{ bytes, objects uint64 }

var heapSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func readHeap() heapCount {
	s := make([]rtmetrics.Sample, len(heapSamples))
	for i, name := range heapSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return heapCount{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// heapSysMB is the Go heap obtained from the OS, in MiB. It never
// shrinks, so it is the run's high-water mark.
func heapSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1 << 20)
}

func (h heapCount) sub(o heapCount) heapCount {
	return heapCount{h.bytes - o.bytes, h.objects - o.objects}
}

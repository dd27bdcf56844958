package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layers are the per-layer attribution buckets: this repository's package
// names (the root package is gangsched), perfbench for the benchmark's own
// code, other for any remaining package of the module, and runtime for
// samples with no module frame at all (GC workers, the scheduler, the
// standard library's own goroutines such as net/http's connection loops).
var layers = []string{
	"gangsched", "sim", "proc", "vm", "mem", "swap", "disk", "core", "mpi", "gang",
	"cluster", "obs", "audit", "acct", "store", "queue", "serve", "runner", "expt",
	"workload", "trace", "faults", "metrics", "perfbench", "other", "runtime",
}

var namedLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// funcPackage extracts the import path from a symbol name such as
// "repro/internal/vm.(*VM).Fault" or "repro/internal/runner.Map[...].func1".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a symbol to its layer, or "" for a frame outside the
// module and the benchmark.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "repro":
		return "gangsched"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if namedLayer[name] {
			return name
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "repro/perfbench"):
		return "perfbench"
	case strings.HasPrefix(pkg, "repro/"):
		return "other"
	}
	return ""
}

func isRuntime(fn string) bool {
	pkg := funcPackage(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// stackSample is one profile sample: its frames leaf first (inlined
// frames expanded) and the CPU time it stands for.
type stackSample struct {
	frames []string
	ns     int64
}

// attribution is host CPU time per layer. Self charges each sample to the
// innermost module frame (runtime when there is none), so Self sums to
// Total. Cum counts a sample once for every layer on its stack; for
// runtime it counts samples with any frame of the Go runtime.
type attribution struct {
	Self, Cum map[string]float64 // seconds
	Total     float64
}

func newAttribution() *attribution {
	return &attribution{Self: map[string]float64{}, Cum: map[string]float64{}}
}

func (a *attribution) add(samples []stackSample) {
	for _, s := range samples {
		sec := float64(s.ns) / 1e9
		a.Total += sec
		self := ""
		seen := make(map[string]bool, 4)
		for _, fn := range s.frames {
			l := layerOf(fn)
			if l == "" && isRuntime(fn) {
				seen["runtime"] = true
			}
			if l == "" {
				continue
			}
			if self == "" {
				self = l
			}
			seen[l] = true
		}
		if self == "" {
			self = "runtime"
		}
		a.Self[self] += sec
		for l := range seen {
			a.Cum[l] += sec
		}
	}
}

// ---- a minimal reader for the gzipped protobuf runtime/pprof writes ----

// parseProfile decodes a CPU profile into stack samples carrying the
// "cpu" sample value (nanoseconds).
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("decompressing profile: %w", err)
		}
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs        []string
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames   = map[uint64]int64{}    // function id -> string index
	)
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, typ)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return repeated(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(w, v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	valIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return nil, errors.New("profile has no sample types")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if valIdx >= len(s.vals) {
			return nil, fmt.Errorf("sample has %d values, want > %d", len(s.vals), valIdx)
		}
		ss := stackSample{ns: s.vals[valIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ss.frames = append(ss.frames, str(funcNames[fn]))
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// fields walks the protobuf fields of msg, passing varint values as v and
// length-delimited payloads as b.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
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
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated handles a repeated varint field in either packed or unpacked
// encoding.
func repeated(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// sortedLayers lists the layers by descending self time.
func (a *attribution) sortedLayers() []string {
	out := append([]string(nil), layers...)
	sort.SliceStable(out, func(i, j int) bool { return a.Self[out[i]] > a.Self[out[j]] })
	return out
}

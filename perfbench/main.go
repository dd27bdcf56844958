// Command perfbench is the repository's benchmark. It runs one named
// workload in a single process for a fixed time, checks the program's
// outputs, and prints one JSON object as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"wall_s":{"value":…,"unit":"s"},…}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs with a CPU profile and span recording on, and the
// metrics are the per-layer ones (see README.md). The spread subcommand
// reruns one workload k times and prints each metric's median and
// quartiles.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"jobs_per_s", "1/s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run. A metric a workload does not
// exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_s", "s"}, metricDef{l + ".cum_s", "s"})
	}
	return append(defs, []metricDef{
		{"profile.total_s", "s"},
		{"trace.wall_s", "s"},
		{"trace.overhead_pct", "%"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"vm.major_faults", "count"},
		{"vm.minor_faults", "count"},
		{"vm.pages_in", "count"},
		{"vm.pages_out", "count"},
		{"vm.bg_pages_out", "count"},
		{"vm.wasted_bg_write", "count"},
		{"vm.reclaim_passes", "count"},
		{"core.prefault_pages", "count"},
		{"core.switch_evictions", "count"},
		{"disk.seeks", "count"},
		{"disk.busy_sim_s", "s"},
		{"gang.switches", "count"},
		{"gang.quanta", "count"},
		{"mpi.barrier_wait_sim_s", "s"},
		{"cluster.build_s", "s"},
		{"gangsched.run_s", "s"},
		{"gangsched.runs", "count"},
		{"audit.checks", "count"},
		{"obs.events", "count"},
		{"obs.spans", "count"},
		{"store.emit_s", "s"},
		{"store.close_s", "s"},
		{"store.bytes_per_event", "B"},
		{"store.mb", "MB"},
		{"store.scan_s", "s"},
		{"store.scans", "count"},
		{"store.bytes_read", "B"},
		{"expt.replay_s", "s"},
		{"serve.submit_p50_ms", "ms"},
		{"serve.list_p50_ms", "ms"},
		{"serve.fetch_p50_ms", "ms"},
		{"serve.result_kb", "KB"},
		{"serve.query_kb", "KB"},
		{"serve.drain_s", "s"},
		{"queue.journal_mb", "MB"},
		{"queue.recovered_jobs", "count"},
		{"runner.cpu_per_wall", "ratio"},
		{"state_mb", "MB"},
		{"query_p50_ms", "ms"},
		{"query_p90_ms", "ms"},
	}...)
}()

// workload is one benchmark input set.
type workload struct {
	name string
	// setup, when set, runs before every round, outside its timed phase,
	// and appends set-up time samples to bench.setup.
	setup func(b *bench) error
	// round runs the workload once. It brackets its timed phase with
	// b.m.start/stop, counts operations through b.op, reports output
	// problems through b.check, and sets b.jobs and b.jobsWall.
	round func(b *bench) error
}

var workloads = []workload{
	{name: "fig7-serial", setup: fig7Setup, round: fig7Round},
	{name: "fig9-audited", setup: fig9Setup, round: fig9Round},
	{name: "gangsimd-sweep", round: sweepRound},
}

// bench carries one process's measurement state across rounds.
type bench struct {
	seed  int64
	dir   string  // scratch directory, removed at exit
	tr    *tracer // nil in untraced rounds
	round int

	m        meter
	jobs     int64         // jobs completed in the current round
	jobsWall time.Duration // wall window those jobs completed in

	attempted, failed int64
	problems          []string
	setup             []float64            // set-up time samples, seconds
	lat               map[string][]float64 // latency samples by kind, ms
	layer             map[string]float64   // per-layer values of the latest traced round
}

// op counts one attempted operation and reports whether it succeeded.
func (b *bench) op(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
		return false
	}
	return true
}

// check records an output that is not what the program must produce.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		if len(b.problems) < 20 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
		}
		b.problems = append(b.problems, msg)
	}
}

// sample records one latency sample in milliseconds.
func (b *bench) sample(kind string, d time.Duration) {
	b.lat[kind] = append(b.lat[kind], float64(d)/float64(time.Millisecond))
}

// add accumulates a per-layer value for the current traced round.
func (b *bench) add(name string, v float64) {
	if b.tr != nil {
		b.layer[name] += v
	}
}

// set records a per-layer value for the current traced round.
func (b *bench) set(name string, v float64) {
	if b.tr != nil {
		b.layer[name] = v
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spread(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "fig7-serial", "workload to run: fig7-serial, fig9-audited or gangsimd-sweep")
	seed := fs.Int64("seed", 1, "workload seed; the program receives only the inputs generated from it")
	seconds := fs.Float64("seconds", 35, "measure for this long; rounds always complete")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *traceFlag, *seconds)
		os.Exit(2)
	}
	out := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", w.name, *seed))
	rep, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// roundStat is the timed phase of one round.
type roundStat struct {
	wall, cpu, allocMB, rssMB float64
	jobs                      int64
	jobsWall                  float64
}

func run(w *workload, seed int64, seconds time.Duration, traced bool, outDir string) (*report, error) {
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{seed: seed, dir: dir, lat: map[string][]float64{}, layer: map[string]float64{}}

	// A traced run alternates untraced and traced rounds, so the tracing
	// overhead is measured within one process.
	tr := newTracer()
	attr := newAttribution()
	var plain, withTrace []roundStat
	var lastProfile []byte
	var took []float64 // whole-round durations, checks included
	start := time.Now()
	for i := 0; ; i++ {
		roundStart := time.Now()
		b.round = i
		b.m = meter{}
		b.jobs, b.jobsWall = 0, 0
		b.tr = nil
		if w.setup != nil {
			if err := w.setup(b); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
		}
		// Each round starts from a collected heap returned to the OS, so
		// its resident peak does not depend on earlier rounds.
		runtime.GC()
		debug.FreeOSMemory()
		var prof *bytes.Buffer
		if traced && i%2 == 1 {
			b.tr = tr
			b.layer = map[string]float64{}
			prof = &bytes.Buffer{}
			if err := pprof.StartCPUProfile(prof); err != nil {
				return nil, err
			}
		}
		rss := startRSS()
		err := w.round(b)
		peak, rerr := rss.finish()
		if prof != nil {
			pprof.StopCPUProfile()
			samples, perr := parseProfile(prof.Bytes())
			if perr != nil {
				return nil, fmt.Errorf("reading CPU profile: %w", perr)
			}
			attr.add(samples)
			lastProfile = prof.Bytes()
		}
		b.m.stop()
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		if rerr != nil {
			return nil, rerr
		}
		st := roundStat{wall: b.m.wall.Seconds(), cpu: b.m.cpu, allocMB: float64(b.m.alloc) / (1 << 20), rssMB: peak, jobs: b.jobs, jobsWall: b.jobsWall.Seconds()}
		if b.tr != nil {
			withTrace = append(withTrace, st)
		} else {
			plain = append(plain, st)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d traced=%v wall %.3fs cpu %.3fs alloc %.1fMB rss %.1fMB jobs %d in %.3fs setup samples %.4f\n",
			w.name, i, b.tr != nil, st.wall, st.cpu, st.allocMB, st.rssMB, st.jobs, st.jobsWall, b.setup)
		// Start another round only if at least half of it fits in the
		// measuring time, so a run overruns --seconds by at most half a
		// round.
		took = append(took, time.Since(roundStart).Seconds())
		left := seconds - time.Since(start)
		if left.Seconds() < median(took)/2 && (!traced || len(withTrace) > 0) {
			break
		}
	}
	rep := &report{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	if b.attempted == 0 {
		return nil, errors.New("no operations attempted")
	}
	if !traced {
		values := map[string]float64{
			"wall_s":      median(pick(plain, func(s roundStat) float64 { return s.wall })),
			"jobs_per_s":  median(pick(plain, func(s roundStat) float64 { return float64(s.jobs) / s.jobsWall })),
			"cpu_s":       median(pick(plain, func(s roundStat) float64 { return s.cpu })),
			"alloc_mb":    median(pick(plain, func(s roundStat) float64 { return s.allocMB })),
			"peak_rss_mb": median(pick(plain, func(s roundStat) float64 { return s.rssMB })),
			"setup_s":     median(b.setup),
		}
		for _, d := range endToEnd {
			rep.Metrics[d.name] = metricValue{values[d.name], d.unit}
		}
		return rep, nil
	}

	// Per-layer report: profile attribution per traced round, the latest
	// traced round's counts, and latencies pooled over the run.
	n := float64(len(withTrace))
	for _, l := range layers {
		b.layer[l+".self_s"] = attr.Self[l] / n
		b.layer[l+".cum_s"] = attr.Cum[l] / n
	}
	b.layer["profile.total_s"] = attr.Total / n
	tw := median(pick(withTrace, func(s roundStat) float64 { return s.wall }))
	pw := median(pick(plain, func(s roundStat) float64 { return s.wall }))
	b.layer["trace.wall_s"] = tw
	b.layer["trace.overhead_pct"] = 100 * (tw/pw - 1)
	if ev := b.layer["sim.events"]; ev > 0 {
		b.layer["sim.ns_per_event"] = b.layer["gangsched.run_s"] * 1e9 / ev
	}
	b.layer["query_p50_ms"], _ = percentile(b.lat["query"], 0.5)
	b.layer["query_p90_ms"], _ = percentile(b.lat["query"], 0.9)
	b.layer["serve.submit_p50_ms"], _ = percentile(b.lat["submit"], 0.5)
	b.layer["serve.list_p50_ms"], _ = percentile(b.lat["list"], 0.5)
	b.layer["serve.fetch_p50_ms"], _ = percentile(b.lat["fetch"], 0.5)
	for _, d := range perLayer {
		v := b.layer[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.name] = metricValue{v, d.unit}
	}
	if err := writeTrace(outDir, tr, attr, rep, lastProfile, len(b.lat["query"])); err != nil {
		return nil, err
	}
	return rep, nil
}

func pick(rs []roundStat, f func(roundStat) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// writeTrace writes the traced run's spans, its per-layer table and the
// last traced round's CPU profile.
func writeTrace(dir string, tr *tracer, attr *attribution, rep *report, profile []byte, querySamples int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "host CPU per traced round by layer (profile total %.3fs; self sums to it)\n", rep.Metrics["profile.total_s"].Value)
	fmt.Fprintf(&sb, "%-12s %10s %8s %10s\n", "layer", "self_s", "self%", "cum_s")
	for _, l := range attr.sortedLayers() {
		self := rep.Metrics[l+".self_s"].Value
		share := 0.0
		if t := rep.Metrics["profile.total_s"].Value; t > 0 {
			share = 100 * self / t
		}
		fmt.Fprintf(&sb, "%-12s %10.4f %7.2f%% %10.4f\n", l, self, share, rep.Metrics[l+".cum_s"].Value)
	}
	fmt.Fprintf(&sb, "\nspans (all traced rounds)\n")
	writeSpanTable(&sb, summarize(tr.spans))
	fmt.Fprintf(&sb, "\nper-layer metrics (query latency over %d samples)\n", querySamples)
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		if !strings.HasSuffix(k, ".self_s") && !strings.HasSuffix(k, ".cum_s") {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "%-26s %16.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	js, err := json.MarshalIndent(rep.Metrics, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), js, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), profile, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced output in %s\n", dir)
	_, err = io.WriteString(os.Stderr, sb.String())
	return err
}

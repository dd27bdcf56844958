package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Fatal("p90 reported over 99 samples")
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 49 {
		t.Fatalf("median of 0..98 = %v, %v; want 49", v, ok)
	}
	xs = append(xs, 99)
	v, ok := percentile(xs, 0.9)
	if !ok || math.Abs(v-89.1) > 1e-9 {
		t.Fatalf("p90 of 0..99 = %v, %v; want 89.1", v, ok)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Fatal("p99 reported over 100 samples")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("median of no samples reported")
	}
}

// The spread command must agree with Python's statistics.quantiles(n=4),
// which the benchmark's bounds are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		got, ok := quartiles(tc.in)
		if !ok || got != tc.want {
			t.Errorf("quartiles(%v) = %v, %v; want %v", tc.in, got, ok, tc.want)
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/vm.(*VM).Fault":          "vm",
		"repro/internal/vm.(*VM).TouchRun.func1": "vm",
		"repro.RunDetailedContext":               "gangsched",
		"repro.(*RunHandle).Spans":               "gangsched",
		"repro/internal/runner.Map[go.shape.struct { repro/internal/metrics.X }].func1": "runner",
		"repro/internal/stats.Mean": "other",
		"repro/cmd/gangsim.main":    "other",
		"main.fig7Round":            "perfbench",
		"repro/perfbench.fig7Round": "perfbench",
		"runtime.mallocgc":          "",
		"net/http.(*conn).serve":    "",
		"encoding/json.Marshal":     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributionSelfSumsToTotalAndCumCountsOnce(t *testing.T) {
	samples := []stackSample{
		// vm called from sim called from vm: vm is self, and cum counts vm once.
		{frames: []string{"runtime.memmove", "repro/internal/vm.a", "repro/internal/sim.b", "repro/internal/vm.c", "repro.Run"}, ns: 3e9},
		// GC worker: no module frame, charged to runtime.
		{frames: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, ns: 2e9},
		// Standard library called from the queue is the queue's.
		{frames: []string{"encoding/json.Marshal", "repro/internal/queue.(*Queue).append"}, ns: 1e9},
	}
	a := newAttribution()
	a.add(samples)
	var self float64
	for _, l := range layers {
		self += a.Self[l]
	}
	if a.Total != 6 || math.Abs(self-a.Total) > 1e-12 {
		t.Fatalf("self sums to %v, total %v; want both 6", self, a.Total)
	}
	want := map[string]float64{"vm": 3, "runtime": 2, "queue": 1}
	for l, v := range want {
		if a.Self[l] != v {
			t.Errorf("self[%s] = %v, want %v", l, a.Self[l], v)
		}
	}
	wantCum := map[string]float64{"vm": 3, "sim": 3, "gangsched": 3, "runtime": 5, "queue": 1}
	for l, v := range wantCum {
		if a.Cum[l] != v {
			t.Errorf("cum[%s] = %v, want %v", l, a.Cum[l], v)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// A real runtime/pprof profile decodes, and the time spent spinning in
// this package is charged to the benchmark's own layer.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := newAttribution()
	a.add(samples)
	if a.Total <= 0 || a.Self["perfbench"] < a.Total/2 {
		t.Fatalf("profile total %vs, perfbench self %vs; want most of it in perfbench", a.Total, a.Self["perfbench"])
	}
}

func TestFilterEvents(t *testing.T) {
	ev := func(tm sim.Time, node int) obs.Event { return obs.Event{T: tm, Node: node, Kind: obs.KindDiskTransfer} }
	all := []obs.Event{ev(0, 0), ev(5, 1), ev(10, obs.ClusterScope), ev(10, 0), ev(20, 1)}
	zero, one, cluster := 0, 1, obs.ClusterScope
	for _, tc := range []struct {
		from, to sim.Time
		node     *int
		want     []obs.Event
	}{
		{0, 0, nil, all},
		{5, 10, nil, []obs.Event{ev(5, 1)}}, // to is exclusive
		{10, 0, nil, all[2:]},               // from is inclusive, to 0 unbounded
		{0, 0, &zero, []obs.Event{ev(0, 0), ev(10, 0)}},
		{1, 21, &one, []obs.Event{ev(5, 1), ev(20, 1)}},
		{0, 0, &cluster, []obs.Event{ev(10, obs.ClusterScope)}},
		{21, 30, nil, nil},
	} {
		if got := filterEvents(all, tc.from, tc.to, tc.node); !slices.Equal(got, tc.want) {
			t.Errorf("filter [%d,%d) node %v = %v, want %v", tc.from, tc.to, tc.node, got, tc.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []*span{
		{ID: 1, Name: "round", Busy: 100},
		{ID: 2, Parent: 1, Name: "run", Busy: 60},
		{ID: 3, Parent: 1, Name: "emit", Busy: 15, Count: 1000},
		{ID: 4, Parent: 2, Name: "scan", Busy: 10},
	}
	got := map[string]spanStat{}
	for _, s := range summarize(tr.spans) {
		got[s.Name] = s
	}
	us := time.Microsecond
	if r := got["round"]; r.Self != 25*us || r.Total != 100*us {
		t.Errorf("round: %+v", r)
	}
	if r := got["run"]; r.Self != 50*us {
		t.Errorf("run: %+v", r)
	}
	if r := got["emit"]; r.Calls != 1000 {
		t.Errorf("emit: %+v", r)
	}
}

// Every seed submits the same simulation work: the same multiset of
// (policy, footprints, iterations) per sweep, whatever the order.
func TestSweepInputsSameWorkEverySeed(t *testing.T) {
	key := func(seed int64) []string {
		var out []string
		for _, in := range sweepInputs(seed) {
			for _, sc := range in.specs {
				a, b := sc.Jobs[0].FootprintMB, sc.Jobs[1].FootprintMB
				out = append(out, fmt.Sprintf("%s %d+%d x%d", sc.Policy, min(a, b), max(a, b), sc.Jobs[0].Iterations))
			}
		}
		sort.Strings(out)
		return out
	}
	if !slices.Equal(key(1), key(7)) {
		t.Fatal("seeds 1 and 7 submit different work")
	}
	if a, b := sweepInputs(3), sweepInputs(3); a[0].specs[0].Seed != b[0].specs[0].Seed || a[5].oracle != b[5].oracle {
		t.Fatal("the same seed gives different inputs")
	}
}

// BENCHMARK.json at the checkout root lists exactly the metrics this
// program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), program prints %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
}

// The completion poll reads the done and dead queue depth gauges only.
func TestTerminalDepth(t *testing.T) {
	prom := []byte(`# HELP gangsimd_queue_depth jobs currently in each queue state
# TYPE gangsimd_queue_depth gauge
gangsimd_queue_depth{state="dead"} 1
gangsimd_queue_depth{state="done"} 134
gangsimd_queue_depth{state="leased"} 2
gangsimd_queue_depth{state="pending"} 7
gangsimd_runs_active 2
`)
	if n, err := terminalDepth(prom); err != nil || n != 135 {
		t.Fatalf("terminalDepth = %d, %v; want 135", n, err)
	}
	if _, err := terminalDepth([]byte("gangsimd_runs_active 2\n")); err == nil {
		t.Fatal("terminalDepth accepted an exposition without depth gauges")
	}
}

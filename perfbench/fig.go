package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	gangsched "repro"
	"repro/internal/expt"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Figure 7 and Figure 9 use the paper's serial setup: two instances of a
// class B program on one 1024 MB machine, the rest of memory wired down,
// five-minute quanta and background writing in the last tenth of each.
const nodeMB = 1024

// npbSpec is the paper's two-instance experiment for one program. The NPB
// models have no compute jitter, so seed does not change the outcome.
func npbSpec(seed int64, app gangsched.App, policy string, batch bool) gangsched.Spec {
	beh, avail := gangsched.NPB(app, gangsched.ClassB, 1)
	return gangsched.Spec{
		Seed:            seed,
		Nodes:           1,
		MemoryMB:        nodeMB,
		LockedMB:        nodeMB - avail,
		Policy:          policy,
		Batch:           batch,
		Quantum:         5 * time.Minute,
		BGWriteFraction: 0.1,
		Jobs: []gangsched.JobSpec{
			{Name: string(app) + "-1", Workload: beh, HintWorkingSet: true},
			{Name: string(app) + "-2", Workload: beh, HintWorkingSet: true},
		},
	}
}

// variant is one run of a figure: a policy, or the batch baseline.
type variant struct {
	label, policy string
	batch         bool
}

var (
	fig7Apps     = []gangsched.App{gangsched.LU, gangsched.SP, gangsched.CG, gangsched.IS, gangsched.MG}
	fig7Variants = []variant{{"batch", "orig", true}, {"orig", "orig", false}, {"so/ao/ai/bg", "so/ao/ai/bg", false}}
	fig9Variants = []variant{
		{"batch", "orig", true}, {"orig", "orig", false}, {"ai", "ai", false}, {"so", "so", false},
		{"so/ao", "so/ao", false}, {"so/ao/bg", "so/ao/bg", false}, {"so/ao/ai/bg", "so/ao/ai/bg", false},
	}
)

// Paper figures the checks hold the model to: LU's serial paging
// reduction under so/ao/ai/bg (§4.1, Figure 7; Figure 9's serial bar).
const (
	paperLUReductionFig7 = 0.84
	paperLUReductionFig9 = 0.83
	reductionTolerance   = 0.10
)

// reduction is the paper's paging reduction 1 − (T_new − T_batch)/(T_orig − T_batch).
func reduction(batch, orig, adaptive sim.Duration) float64 {
	return 1 - float64(adaptive-batch)/float64(orig-batch)
}

// buildTimes measures set-up: building every run's cluster, by calling
// RunDetailedContext with a context that is already cancelled, so the
// run stops before its first event. One pass builds every spec's
// cluster; a single pass lasts tens of milliseconds and its time depends
// on when the collector runs, so the sample is the mean pass time over
// passes back-to-back passes (about a second), after one untimed pass
// and a collection.
func buildTimes(b *bench, specs []gangsched.Spec, passes int) error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var t0 time.Time
	for p := -1; p < passes; p++ {
		if p == 0 {
			runtime.GC()
			t0 = time.Now()
		}
		for _, spec := range specs {
			h, err := gangsched.RunDetailedContext(ctx, spec)
			if !errors.Is(err, context.Canceled) || h == nil || !h.Result.Interrupted {
				return fmt.Errorf("cancelled run did not stop at once: %v", err)
			}
		}
	}
	b.setup = append(b.setup, time.Since(t0).Seconds()/float64(passes))
	return nil
}

// Set-up passes per round: about a second of cluster building each.
const (
	fig7SetupPasses = 12
	fig9SetupPasses = 25
)

// runSpec runs one simulation, counting it as an operation and, in a
// traced round, recording its span and work counts. It returns nil when
// the run failed or did not finish every job.
func (b *bench) runSpec(trace string, parent int, spec gangsched.Spec) *gangsched.RunHandle {
	id := b.tr.begin("gangsched.RunDetailedContext", trace, parent)
	t0 := time.Now()
	h, err := gangsched.RunDetailedContext(context.Background(), spec)
	d := time.Since(t0)
	b.tr.end(id)
	if err == nil && h.Result.Interrupted {
		err = errors.New("run interrupted")
	}
	if err == nil {
		for _, j := range h.Result.Jobs {
			if !j.Done {
				err = fmt.Errorf("job %s not done", j.Name)
			}
		}
	}
	if !b.op(wrap(trace, err)) {
		return nil
	}
	b.add("gangsched.run_s", d.Seconds())
	b.add("gangsched.runs", 1)
	b.addResult(h.Result)
	if h.Metrics != nil {
		snap := h.Metrics.Snapshot()
		for name, metric := range map[string]string{
			"gangsim_engine_events_total":    "sim.events",
			"gangsim_reclaim_passes_total":   "vm.reclaim_passes",
			"gangsim_prefault_pages_total":   "core.prefault_pages",
			"gangsim_switch_evictions_total": "core.switch_evictions",
			"gangsim_quanta_total":           "gang.quanta",
		} {
			b.add(metric, seriesSum(snap, name))
		}
	}
	return h
}

func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

// seriesSum adds every series of one metric family.
func seriesSum(s obs.Snapshot, name string) float64 {
	var sum float64
	for id, v := range s {
		if id == name || strings.HasPrefix(id, name+"{") {
			sum += v.Value
		}
	}
	return sum
}

// addResult accumulates a run's deterministic work counts.
func (b *bench) addResult(r gangsched.Result) {
	for _, n := range r.Nodes {
		b.add("vm.major_faults", float64(n.MajorFaults))
		b.add("vm.minor_faults", float64(n.MinorFaults))
		b.add("vm.pages_in", float64(n.PagesIn))
		b.add("vm.pages_out", float64(n.PagesOut))
		b.add("vm.bg_pages_out", float64(n.BGPagesOut))
		b.add("vm.wasted_bg_write", float64(n.WastedBGWrite))
		b.add("disk.seeks", float64(n.DiskSeeks))
		b.add("disk.busy_sim_s", n.DiskBusy.Seconds())
	}
	b.add("gang.switches", float64(r.Switches))
	for _, j := range r.Jobs {
		b.add("mpi.barrier_wait_sim_s", j.BarrierWait.Seconds())
	}
}

// ---- fig7-serial ----

func fig7Specs(seed int64) []gangsched.Spec {
	var specs []gangsched.Spec
	for _, app := range fig7Apps {
		for _, v := range fig7Variants {
			specs = append(specs, npbSpec(seed, app, v.policy, v.batch))
		}
	}
	return specs
}

func fig7Setup(b *bench) error {
	return buildTimes(b, fig7Specs(b.seed), fig7SetupPasses)
}

// fig7Round runs Figure 7's fifteen runs one after another. The traced
// variant turns on the metrics registry so engine and reclaim counts can
// be read.
func fig7Round(b *bench) error {
	specs := fig7Specs(b.seed)
	makespans := make([]sim.Duration, len(specs))
	ok := make([]bool, len(specs))
	root := b.tr.begin("round", "", 0)
	b.m.start()
	for i, spec := range specs {
		if b.tr != nil {
			spec.Observe = &obs.Options{Metrics: true}
		}
		app, v := fig7Apps[i/len(fig7Variants)], fig7Variants[i%len(fig7Variants)]
		if h := b.runSpec(fmt.Sprintf("%s %s", app, v.label), root, spec); h != nil {
			makespans[i], ok[i] = h.Result.Makespan, true
		}
	}
	b.m.stop()
	b.tr.end(root)
	b.jobs, b.jobsWall = int64(len(specs)), b.m.wall
	b.set("cluster.build_s", median(b.setup))

	for a, app := range fig7Apps {
		i := a * len(fig7Variants)
		if !ok[i] || !ok[i+1] || !ok[i+2] {
			continue
		}
		batch, orig, adaptive := makespans[i], makespans[i+1], makespans[i+2]
		b.check(batch < adaptive && adaptive < orig,
			"%s: want T_batch < T_so/ao/ai/bg < T_orig, got %v, %v, %v", app, batch, adaptive, orig)
		if batch >= orig {
			continue
		}
		red := reduction(batch, orig, adaptive)
		b.check(red > 0, "%s: paging reduction %.4f not positive", app, red)
		if app == gangsched.LU {
			b.check(math.Abs(red-paperLUReductionFig7) <= reductionTolerance,
				"LU: paging reduction %.4f more than %.0f pp from the paper's %.0f%%", red, 100*reductionTolerance, 100*paperLUReductionFig7)
		}
	}
	return nil
}

// ---- fig9-audited ----

// fig9Spec is one rung of the §4.3 ladder run the way a user debugging a
// policy runs it: audited after every event, with the makespan ledger,
// the causal tracer and the metrics registry on.
func fig9Spec(seed int64, v variant) gangsched.Spec {
	spec := npbSpec(seed, gangsched.LU, v.policy, v.batch)
	spec.Audit = &gangsched.AuditSpec{Every: 1}
	spec.Observe = &obs.Options{Metrics: true, Trace: true, Ledger: true}
	return spec
}

func fig9Setup(b *bench) error {
	var specs []gangsched.Spec
	for _, v := range fig9Variants {
		specs = append(specs, fig9Spec(b.seed, v))
	}
	return buildTimes(b, specs, fig9SetupPasses)
}

// timedSink counts the events a run emits into the store sink and, in a
// traced round, the time spent in Emit.
type timedSink struct {
	inner  *store.Sink
	timed  bool
	events int64
	busy   time.Duration
	first  time.Time
	last   time.Time
}

func (s *timedSink) Emit(ev obs.Event) {
	s.events++
	if !s.timed {
		s.inner.Emit(ev)
		return
	}
	t0 := time.Now()
	s.inner.Emit(ev)
	t1 := time.Now()
	if s.first.IsZero() {
		s.first = t0
	}
	s.last = t1
	s.busy += t1.Sub(t0)
}

// fig9Queries lays out the eighteen range queries read back from one
// stored run: the whole run first (the oracle's input), then eighths of
// its time span, quarters on node 0, the cluster-scoped events, node 0
// whole, the first and last 64ths of the run, and the cluster-scoped
// events of its middle eighth.
func fig9Queries(run string, minT, maxT sim.Time) []store.Query {
	end := maxT + 1
	span := end - minT
	node0, cluster := 0, obs.ClusterScope
	at := func(num, den int64) sim.Time { return minT + sim.Time(int64(span)*num/den) }
	qs := []store.Query{{Run: run}}
	for i := int64(0); i < 8; i++ {
		qs = append(qs, store.Query{Run: run, From: at(i, 8), To: at(i+1, 8)})
	}
	for i := int64(0); i < 4; i++ {
		qs = append(qs, store.Query{Run: run, Node: &node0, From: at(i, 4), To: at(i+1, 4)})
	}
	qs = append(qs,
		store.Query{Run: run, Node: &cluster},
		store.Query{Run: run, Node: &node0},
		store.Query{Run: run, From: at(0, 64), To: at(1, 64)},
		store.Query{Run: run, From: at(63, 64), To: end},
		store.Query{Run: run, Node: &cluster, From: at(4, 8), To: at(5, 8)},
	)
	for i := range qs {
		if qs[i].To <= qs[i].From {
			qs[i].To = 0 // degenerate window on a tiny run: read to the end
		}
	}
	return qs
}

func storeRunName(label string) string { return strings.ReplaceAll(label, "/", "-") }

// fig9Round runs the ladder with every event written to a trace store,
// then reads each run back through range queries and a Figure 6 replay.
func fig9Round(b *bench) error {
	stDir := filepath.Join(b.dir, fmt.Sprintf("fig9-store-%d", b.round))
	defer os.RemoveAll(stDir)
	st, err := store.Open(stDir)
	if err != nil {
		return err
	}
	root := b.tr.begin("round", "", 0)
	b.m.start()

	type runOut struct {
		label   string
		handle  *gangsched.RunHandle
		emitted int64
	}
	var runs []runOut
	for _, v := range fig9Variants {
		name := storeRunName(v.label)
		w, err := st.Writer(name, store.WriterOptions{})
		if err != nil {
			return err
		}
		sink := &timedSink{inner: store.NewSink(w), timed: b.tr != nil}
		spec := fig9Spec(b.seed, v)
		spec.Observe.Sinks = []obs.Sink{sink}
		h := b.runSpec(v.label, root, spec)
		b.tr.aggregate("store.Sink.Emit", v.label, root, sink.first, sink.last, sink.busy, sink.events)
		cid := b.tr.begin("store.Sink.Close", v.label, root)
		t0 := time.Now()
		cerr := sink.inner.Close()
		b.add("store.close_s", time.Since(t0).Seconds())
		b.tr.end(cid)
		b.add("store.emit_s", sink.busy.Seconds())
		b.op(wrap(v.label+" store close", cerr))
		if h == nil || cerr != nil {
			continue
		}
		b.add("audit.checks", float64(h.AuditChecks))
		b.add("obs.events", float64(sink.events))
		b.add("obs.spans", float64(h.SpanCount()))
		runs = append(runs, runOut{v.label, h, sink.events})
	}

	// Read back every run: range queries against the store, each checked
	// against the benchmark's own filter of the whole-run scan, and the
	// Figure 6 replay of node 0.
	var storedBytes, storedEvents int64
	makespan := map[string]sim.Duration{}
	for _, r := range runs {
		name := storeRunName(r.label)
		res := r.handle.Result
		makespan[r.label] = res.Makespan
		b.m.stop()
		b.check(r.handle.AuditChecks > 0, "%s: no audit checks ran", r.label)
		for _, j := range res.Jobs {
			if j.Attribution == nil {
				b.check(false, "%s: job %s has no makespan attribution", r.label, j.Name)
				continue
			}
			b.check(int64(j.Attribution.Total()) == int64(j.FinishedAt),
				"%s: job %s attribution sums to %d µs, finished at %d µs", r.label, j.Name, j.Attribution.Total(), j.FinishedAt)
		}
		b.m.start()

		stat, err := st.Stat(name)
		if r.emitted == 0 {
			// A run that emits nothing (batch LU B never pages) leaves no
			// segment, and the store reports it as absent.
			b.check(errors.Is(err, store.ErrNoRun), "%s: emitted no events, store answered %v", r.label, err)
			continue
		}
		if !b.op(wrap(r.label+" stat", err)) {
			continue
		}
		storedBytes += stat.Bytes
		storedEvents += stat.Events
		var all []obs.Event
		for qi, q := range fig9Queries(name, stat.MinT, stat.MaxT) {
			var got []obs.Event
			sid := b.tr.begin("store.Scan", r.label, root)
			t0 := time.Now()
			err := st.Scan(q, func(ev obs.Event) error {
				got = append(got, ev)
				return nil
			})
			d := time.Since(t0)
			b.tr.end(sid)
			b.sample("query", d)
			b.add("store.scan_s", d.Seconds())
			b.add("store.scans", 1)
			if !b.op(wrap(r.label+" scan", err)) {
				continue
			}
			b.m.stop()
			if qi == 0 {
				all = got
				checkFullScan(b, r.label, all, r.emitted, res)
			} else {
				want := filterEvents(all, q.From, q.To, q.Node)
				b.check(slices.Equal(got, want), "%s: query %d returned %d events, the filter of the full scan %d",
					r.label, qi, len(got), len(want))
			}
			b.m.start()
		}

		rid := b.tr.begin("expt.ReplayTrace", r.label, root)
		t0 := time.Now()
		rep, err := expt.ReplayTrace(st, name, 0, sim.Second)
		b.add("expt.replay_s", time.Since(t0).Seconds())
		b.tr.end(rid)
		if b.op(wrap(r.label+" replay", err)) {
			b.m.stop()
			checkReplay(b, r.label, all, rep)
			b.m.start()
		}
	}
	b.m.stop()
	b.tr.end(root)
	b.jobs, b.jobsWall = int64(len(fig9Variants)), b.m.wall

	mb, err := dirMB(stDir)
	if err != nil {
		return err
	}
	b.set("store.mb", mb)
	b.set("state_mb", mb)
	b.set("store.bytes_read", float64(st.BytesRead()))
	if storedEvents > 0 {
		b.set("store.bytes_per_event", float64(storedBytes)/float64(storedEvents))
	}
	b.set("cluster.build_s", median(b.setup))

	batch, bOK := makespan["batch"]
	orig, oOK := makespan["orig"]
	full, fOK := makespan["so/ao/ai/bg"]
	if bOK && oOK && fOK {
		red := reduction(batch, orig, full)
		b.check(batch < orig && math.Abs(red-paperLUReductionFig9) <= reductionTolerance,
			"so/ao/ai/bg: paging reduction %.4f more than %.0f pp from Figure 9's serial %.0f%%", red, 100*reductionTolerance, 100*paperLUReductionFig9)
	}
	return nil
}

// checkFullScan holds a run's stored history to the run itself: every
// emitted event comes back, in emission order, and the disk transfers
// account for every page the VM moved.
func checkFullScan(b *bench, label string, all []obs.Event, emitted int64, res gangsched.Result) {
	b.check(int64(len(all)) == emitted, "%s: store returned %d events, the sink received %d", label, len(all), emitted)
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			b.check(false, "%s: event %d out of emission order", label, i)
			break
		}
	}
	var readPages, writePages int64
	for _, ev := range all {
		if ev.Kind != obs.KindDiskTransfer {
			continue
		}
		if ev.Write {
			writePages += int64(ev.Pages)
		} else {
			readPages += int64(ev.Pages)
		}
	}
	var in, out int64
	for _, n := range res.Nodes {
		in += n.PagesIn
		out += n.PagesOut + n.BGPagesOut
	}
	b.check(readPages == in, "%s: DiskTransfer reads move %d pages, PagesIn is %d", label, readPages, in)
	b.check(writePages == out, "%s: DiskTransfer writes move %d pages, PagesOut+BGPagesOut is %d", label, writePages, out)
}

// checkReplay holds the Figure 6 replay of node 0 to the stored events.
func checkReplay(b *bench, label string, all []obs.Event, rep *expt.TraceReplayer) {
	var transfers, pages int
	for _, ev := range all {
		if ev.Kind == obs.KindDiskTransfer && ev.Node == 0 {
			transfers++
			pages += ev.Pages
		}
	}
	var kb float64
	for _, name := range rep.Recorder().Names() {
		kb += rep.Recorder().Series(name).Total()
	}
	want := mem.KBFromPages(pages)
	b.check(rep.Transfers() == transfers, "%s: replay folded %d transfers, node 0 has %d", label, rep.Transfers(), transfers)
	b.check(math.Abs(kb-want) <= 1e-6*want, "%s: replay series total %.1f KB, transfers moved %.1f KB", label, kb, want)
}

// dirMB is the size of every regular file under dir.
func dirMB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20), err
}

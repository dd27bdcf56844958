package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	gangsched "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The gangsimd-sweep workload: one client submits sweepCount sweeps of
// runsPerSweep two-node runs to an in-process gangsimd with two workers,
// then reads everything back, drains and restarts the daemon.
const (
	sweepCount   = 8
	runsPerSweep = 16 // every policy at every pressure level
	sweepWorkers = 2
	pollEvery    = 10 * time.Millisecond
	restarts     = 2
)

var sweepPolicies = []string{"orig", "ai", "so/ao", "so/ao/ai/bg"}

// sweepInput is the generated submission: a sweep's specs, whether it
// captures events, and the run the benchmark re-runs in-process.
type sweepInput struct {
	specs  []gangsched.SpecConfig
	events bool
	oracle int
}

// sweepLevels are a sweep's four memory-pressure levels on its 8 MB
// nodes: the two jobs' footprints in MB and their iteration count.
var sweepLevels = []struct {
	mb    [2]int
	iters int
}{{[2]int{4, 5}, 80}, {[2]int{4, 6}, 60}, {[2]int{5, 6}, 50}, {[2]int{6, 7}, 40}}

// sweepInputs draws the inputs from the workload seed. Every sweep holds
// each policy at each pressure level once, so every seed submits the same
// amount of simulation work; the seed draws their order, which job of a
// pair gets the larger footprint, the per-run seeds, and the run the
// benchmark re-runs in-process. Even-numbered sweeps capture their event
// histories.
func sweepInputs(seed int64) []sweepInput {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sweepInput, sweepCount)
	for s := range out {
		out[s].events = s%2 == 0
		for _, i := range rng.Perm(runsPerSweep) {
			lv := sweepLevels[i%len(sweepLevels)]
			fp := lv.mb
			if rng.Intn(2) == 1 {
				fp[0], fp[1] = fp[1], fp[0]
			}
			job := func(name string, mb int) gangsched.JobConfig {
				return gangsched.JobConfig{Name: name, FootprintMB: mb, Iterations: lv.iters, TouchCostUs: 50, MsgKB: 64}
			}
			out[s].specs = append(out[s].specs, gangsched.SpecConfig{
				Seed:     1 + rng.Int63n(1<<30),
				Nodes:    2,
				MemoryMB: 8,
				Policy:   sweepPolicies[i/len(sweepLevels)],
				Quantum:  "1s",
				Jobs:     []gangsched.JobConfig{job("a", fp[0]), job("b", fp[1])},
			})
		}
		out[s].oracle = rng.Intn(runsPerSweep)
	}
	return out
}

// client is the workload's single HTTP client; every call is timed and,
// in a traced round, recorded as a span.
type client struct {
	b    *bench
	http *http.Client
	base string
	root int
}

// do issues one request and returns the status and body.
func (c *client) do(kind, trace, method, path string, body []byte) (int, []byte, time.Duration, error) {
	id := c.b.tr.begin(method+" "+kind, trace, c.root)
	defer c.b.tr.end(id)
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

// get issues a GET that must answer 200, recording its latency.
func (c *client) get(kind, trace, path string) ([]byte, error) {
	code, data, d, err := c.do(kind, trace, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	c.b.sample(kind, d)
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(data))
	}
	return data, nil
}

type jobView struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	State    string          `json:"state"`
	Attempts int             `json:"attempts"`
	Crashes  int             `json:"crashes"`
	Error    string          `json:"error"`
	Updated  time.Time       `json:"updatedAt"`
	Result   json.RawMessage `json:"result"`
}

type runDoc struct {
	Label  string           `json:"label"`
	Result gangsched.Result `json:"result"`
	Events []obs.Event      `json:"events"`
}

// listJobs fetches GET /jobs.
func (c *client) listJobs() ([]jobView, error) {
	data, err := c.get("list", "", "/jobs")
	if err != nil {
		return nil, err
	}
	var l struct{ Jobs []jobView }
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, err
	}
	return l.Jobs, nil
}

// waitDone polls GET /metrics until the queue's depth gauges count want
// jobs done or dead. The gauges are a few lines of text, where GET /jobs
// copies every stored result on each call, so the poll takes next to no
// CPU from the workers.
func (c *client) waitDone(want int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		data, err := c.get("metrics", "", "/metrics")
		if err != nil {
			return err
		}
		n, err := terminalDepth(data)
		if err != nil {
			return err
		}
		if n == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d jobs terminal after %v", n, want, limit)
		}
		time.Sleep(pollEvery)
	}
}

// terminalDepth sums the done and dead gangsimd_queue_depth gauges of a
// Prometheus text exposition.
func terminalDepth(prom []byte) (int, error) {
	n, seen := 0, 0
	for _, line := range strings.Split(string(prom), "\n") {
		if !strings.HasPrefix(line, "gangsimd_queue_depth{") {
			continue
		}
		if !strings.Contains(line, `state="done"`) && !strings.Contains(line, `state="dead"`) {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("queue depth gauge %q: %w", line, err)
		}
		n += int(v)
		seen++
	}
	if seen != 2 {
		return 0, fmt.Errorf("GET /metrics has %d of the done and dead queue depth gauges", seen)
	}
	return n, nil
}

// waitTerminal polls GET /jobs until want jobs exist and all are done or
// dead, and returns them.
func (c *client) waitTerminal(want int, limit time.Duration) ([]jobView, error) {
	deadline := time.Now().Add(limit)
	for {
		jobs, err := c.listJobs()
		if err != nil {
			return nil, err
		}
		terminal := 0
		for _, j := range jobs {
			if j.State == "done" || j.State == "dead" {
				terminal++
			}
		}
		if len(jobs) == want && terminal == want {
			return jobs, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d of %d jobs terminal after %v", terminal, want, limit)
		}
		time.Sleep(pollEvery)
	}
}

// startDaemon starts gangsimd on dir and waits until /healthz answers
// and the recovered job list holds want terminal jobs (want 0: empty).
func (b *bench) startDaemon(dir string, want int) (*serve.Server, *client, error) {
	srv, err := serve.Start(serve.Config{Dir: dir, Workers: sweepWorkers, Seed: b.seed})
	if err != nil {
		return nil, nil, err
	}
	c := &client{b: b, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}, base: "http://" + srv.Addr()}
	if _, err := c.get("health", "", "/healthz"); err != nil {
		stopDaemon(srv, c)
		return nil, nil, err
	}
	if want > 0 {
		if _, err := c.waitTerminal(want, time.Minute); err != nil {
			stopDaemon(srv, c)
			return nil, nil, err
		}
	}
	return srv, c, nil
}

func stopDaemon(srv *serve.Server, c *client) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := srv.Drain(ctx)
	c.http.CloseIdleConnections()
	return err
}

// sweepRound is one session against a fresh state directory: submit,
// wait, read back, drain, restart and re-verify.
func sweepRound(b *bench) error {
	inputs := sweepInputs(b.seed)
	dir := filepath.Join(b.dir, fmt.Sprintf("gangsimd-%d", b.round))
	defer os.RemoveAll(dir)
	root := b.tr.begin("round", "", 0)
	defer b.tr.end(root)

	b.m.start()
	sid := b.tr.begin("serve.Start", "", root)
	srv, c, err := b.startDaemon(dir, 0)
	b.tr.end(sid)
	if err != nil {
		return err
	}
	c.root = root

	// Submit every sweep, then wait for the last run to finish.
	cpu0, t0 := cpuSeconds(), time.Now()
	runIDs := make([][]string, len(inputs)) // per sweep
	for s, in := range inputs {
		body, err := json.Marshal(map[string]any{"kind": "sweep", "specs": in.specs, "events": in.events})
		if err != nil {
			return err
		}
		code, data, d, err := c.do("submit", "", http.MethodPost, "/jobs", body)
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("POST /jobs: %d %s", code, bytes.TrimSpace(data))
		}
		var resp struct {
			ID   string   `json:"id"`
			Jobs []string `json:"jobs"`
		}
		if err == nil {
			err = json.Unmarshal(data, &resp)
		}
		if err == nil && len(resp.Jobs) != runsPerSweep {
			err = fmt.Errorf("sweep %s has %d runs, want %d", resp.ID, len(resp.Jobs), runsPerSweep)
		}
		b.sample("submit", d)
		if !b.op(wrap(fmt.Sprintf("submit sweep %d", s), err)) {
			stopDaemon(srv, c)
			return fmt.Errorf("cannot continue without sweep %d", s)
		}
		runIDs[s] = resp.Jobs
	}
	total := len(inputs) * (1 + runsPerSweep)
	if err := c.waitDone(total, 2*time.Minute); err != nil {
		stopDaemon(srv, c)
		return err
	}
	cpu, seen := cpuSeconds()-cpu0, time.Now()
	b.m.stop()
	jobs, err := c.listJobs() // untimed: the checks' view of every job
	if err != nil {
		stopDaemon(srv, c)
		return err
	}
	// The jobs' own completion stamps end the window, so the polling
	// interval does not lengthen it.
	for _, j := range jobs {
		if d := j.Updated.Sub(t0); d > b.jobsWall {
			b.jobsWall = d
		}
	}
	b.m.wall -= max(seen.Sub(t0)-b.jobsWall, 0)
	b.set("runner.cpu_per_wall", cpu/b.jobsWall.Seconds())
	b.m.start()
	for _, j := range jobs {
		if j.Kind != "run" {
			continue
		}
		var err error
		if j.State != "done" {
			err = fmt.Errorf("run %s is %s: %s", j.ID, j.State, j.Error)
		} else if j.Attempts != 0 || j.Crashes != 0 {
			err = fmt.Errorf("run %s took %d failed attempts and %d crashes", j.ID, j.Attempts, j.Crashes)
		} else {
			b.jobs++
		}
		b.op(err)
	}

	// Read every result and, for the event-capturing sweeps, the run's
	// stored history and one seeded window of it. Each history is checked
	// as soon as it is read, outside the timed phase, and only a digest of
	// each result is kept, so the benchmark's own data does not swell the
	// heap the daemon is measured in.
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	served := map[string]servedRun{}
	oracles := map[string]*history{} // the runs re-run in-process
	var resultBytes, queryBytes, queries float64
	for s, ids := range runIDs {
		for i, id := range ids {
			data, err := c.get("fetch", id, "/jobs/"+id)
			var v jobView
			if err == nil {
				err = json.Unmarshal(data, &v)
			}
			if !b.op(wrap("fetch "+id, err)) {
				continue
			}
			served[id] = servedRun{sha256.Sum256(v.Result), v.Attempts}
			resultBytes += float64(len(v.Result))
			h := &history{}
			if !b.op(wrap("decode "+id, json.Unmarshal(v.Result, &h.doc))) {
				continue
			}
			b.addResult(h.doc.Result)
			if i == inputs[s].oracle {
				oracles[id] = h
			}
			if !inputs[s].events {
				continue
			}
			h.full, err = c.get("query", id, "/events?run="+url.QueryEscape(id))
			if !b.op(wrap("events "+id, err)) {
				continue
			}
			h.q = drawWindow(rng, h.doc.Result.Makespan)
			h.window, err = c.get("query", id, "/events?"+h.q.values(id).Encode())
			if !b.op(wrap("window "+id, err)) {
				continue
			}
			queryBytes += float64(len(h.full) + len(h.window))
			queries += 2
			b.m.stop()
			checkHistory(b, id, h)
			b.m.start()
		}
	}
	b.set("serve.result_kb", resultBytes/float64(max(len(served), 1))/1024)
	b.set("serve.query_kb", queryBytes/max(queries, 1)/1024)

	// The drain's checkpoint fails at this workload's size (see README):
	// it is counted as a failed operation, and the journal it leaves in
	// place is what the restarts recover from.
	did := b.tr.begin("serve.Drain", "", root)
	t1 := time.Now()
	err = stopDaemon(srv, c)
	b.set("serve.drain_s", time.Since(t1).Seconds())
	b.tr.end(did)
	b.op(wrap("drain", err))
	b.m.stop()
	stateMB, err := dirMB(dir)
	if err != nil {
		return err
	}
	storeMB, err := dirMB(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	b.set("state_mb", stateMB)
	b.set("store.mb", storeMB)
	b.set("queue.journal_mb", stateMB-storeMB)

	// Restart on the same state directory: set-up time is from Start until
	// /healthz answers and every job is listed terminal again. A restarted
	// daemon is a new process, so each restart begins from a collected
	// heap returned to the OS. The first restart re-reads every result.
	for r := 0; r < restarts; r++ {
		runtime.GC()
		debug.FreeOSMemory()
		b.m.start()
		rid := b.tr.begin("serve.Start", "", root)
		t0 := time.Now()
		srv, c, err := b.startDaemon(dir, total)
		d := time.Since(t0)
		b.tr.end(rid)
		if !b.op(wrap("restart", err)) {
			b.m.stop()
			continue
		}
		b.setup = append(b.setup, d.Seconds())
		c.root = root
		if r == 0 {
			jobs, err := c.listJobs()
			if err == nil {
				b.set("queue.recovered_jobs", float64(len(jobs)))
			}
			for id, want := range served {
				data, err := c.get("fetch", id, "/jobs/"+id)
				var v jobView
				if err == nil {
					err = json.Unmarshal(data, &v)
				}
				if !b.op(wrap("refetch "+id, err)) {
					continue
				}
				same := sha256.Sum256(v.Result) == want.sum
				b.check(v.State == "done" && same && v.Attempts == want.attempts,
					"run %s after restart: state %s, attempts %d (was %d), result identical %v",
					id, v.State, v.Attempts, want.attempts, same)
			}
		}
		b.op(wrap("drain after restart", stopDaemon(srv, c)))
		b.m.stop()
	}

	// One run per sweep against the same spec run in-process, untimed.
	for s, in := range inputs {
		id := runIDs[s][in.oracle]
		if h, ok := oracles[id]; ok {
			checkInProcess(b, id, in.specs[in.oracle], in.events, h)
		}
	}
	return nil
}

// servedRun is what the restart check needs of a served run job.
type servedRun struct {
	sum      [sha256.Size]byte // of its result document
	attempts int
}

// history is a run as served: its decoded result document and, for an
// event-capturing run, its whole stored history and one seeded window of
// it.
type history struct {
	doc          runDoc
	full, window []byte
	q            windowQuery
}

// checkHistory holds a stored history to the events embedded in the
// result document, and its window to the benchmark's own filter of it.
func checkHistory(b *bench, id string, h *history) {
	b.check(bytes.Equal(h.full, jsonl(h.doc.Events)), "run %s: /events?run= differs from the result's embedded events", id)
	all, err := obs.ReadJSONL(bytes.NewReader(h.full))
	b.check(err == nil, "run %s: /events?run= is not JSONL: %v", id, err)
	want := jsonl(filterEvents(all, h.q.from, h.q.to, h.q.node))
	b.check(bytes.Equal(h.window, want), "run %s: window %+v differs from the filter of the full history", id, h.q)
}

// windowQuery is one seeded /events range query.
type windowQuery struct {
	from, to sim.Time
	node     *int
}

// drawWindow picks a window inside [0, makespan] and, two times in three,
// one node of the two.
func drawWindow(rng *rand.Rand, makespan sim.Duration) windowQuery {
	span := int64(makespan) + 1
	a, z := rng.Int63n(span), rng.Int63n(span)
	if a > z {
		a, z = z, a
	}
	q := windowQuery{from: sim.Time(a), to: sim.Time(z + 1)}
	if n := rng.Intn(3); n < 2 {
		q.node = &n
	}
	return q
}

func (q windowQuery) values(run string) url.Values {
	v := url.Values{"run": {run}, "from": {strconv.FormatInt(int64(q.from), 10) + "us"}, "to": {strconv.FormatInt(int64(q.to), 10) + "us"}}
	if q.node != nil {
		v.Set("node", strconv.Itoa(*q.node))
	}
	return v
}

// jsonl renders events exactly as the program's JSONL sink does.
func jsonl(events []obs.Event) []byte {
	var buf bytes.Buffer
	w := obs.NewJSONL(&buf)
	for _, ev := range events {
		w.Emit(ev)
	}
	w.Flush()
	return buf.Bytes()
}

// checkInProcess runs a served spec in this process and holds the served
// result (ShardsUsed aside, as the service smoke test does) and stored
// history to it.
func checkInProcess(b *bench, id string, sc gangsched.SpecConfig, events bool, h *history) {
	spec, err := sc.Spec()
	if err != nil {
		b.check(false, "run %s: spec: %v", id, err)
		return
	}
	var buf bytes.Buffer
	var sink *obs.JSONLSink
	if events {
		sink = obs.NewJSONL(&buf)
		spec.Observe = &obs.Options{Sinks: []obs.Sink{sink}}
	}
	hd, err := gangsched.RunDetailedContext(context.Background(), spec)
	if err != nil {
		b.check(false, "run %s in-process: %v", id, err)
		return
	}
	doc := h.doc
	local := hd.Result
	local.ShardsUsed, doc.Result.ShardsUsed = 0, 0
	lj, err1 := json.Marshal(local)
	sj, err2 := json.Marshal(doc.Result)
	b.check(err1 == nil && err2 == nil && bytes.Equal(lj, sj), "run %s: served result differs from the in-process run", id)
	if events {
		b.check(sink.Flush() == nil && bytes.Equal(h.full, buf.Bytes()),
			"run %s: /events?run= differs from the in-process run's JSONL", id)
	}
}

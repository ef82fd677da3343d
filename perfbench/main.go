// Command perfbench is the repository's service benchmark. It starts the
// pricing service in-process behind loopback HTTP listeners, drives one
// named workload open-loop, checks every bill against an oracle, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output. See README.md.
//
//	go run . --workload meter-frames --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/workload"
)

type metricDef struct{ name, unit string }

// e2eMetrics are reported on every workload by an untraced run and gated
// in BENCHMARK.json. The wall-clock figures of the ladder and the nominal
// rung are reported too, as e2e.* below, but not gated: they move with
// the host's steal time far past any bound (see README.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_per_request_us", "us"},
	{"heap_peak_mb", "MB"},
}

// layerMetrics are reported on every workload by a traced run; a layer
// the workload does not reach reads 0.
var layerMetrics = []metricDef{
	{"api.frames.decode_ns_per_record", "ns"},
	{"api.ndjson.decode_ns_per_record", "ns"},
	{"api.server.usage_p50_ms", "ms"},
	{"api.server.usage_p99_ms", "ms"},
	{"api.client.overhead_p50_ms", "ms"},
	{"api.response.bytes_per_request", "count"},
	{"api.response.tenants_per_request", "count"},
	{"api.client.response_decode_us", "us"},
	{"api.server.statement_p50_ms", "ms"},
	{"api.server.page_p50_ms", "ms"},
	{"api.server.quote_p50_ms", "ms"},
	{"core.quote_ns_per_record", "ns"},
	{"core.fit_models_ms", "ms"},
	{"core.calibrate_s", "s"},
	{"admission.allow_ns", "ns"},
	{"admission.tick_ms_max", "ms"},
	{"admission.admitted", "count"},
	{"admission.throttled", "count"},
	{"ledger.accrue_ns_per_record", "ns"},
	{"ledger.accrue_durable_ns_per_record", "ns"},
	{"ledger.syncs_per_1k_records", "count"},
	{"ledger.wal_bytes_per_record", "count"},
	{"ledger.summary_ns", "ns"},
	{"ledger.statement_us", "us"},
	{"ledger.page_us", "us"},
	{"ledger.recover_s", "s"},
	{"ledger.records_replayed", "count"},
	{"ledger.accrued", "count"},
	{"ledger.duplicates", "count"},
	{"ledger.dropped", "count"},
	{"ledger.keys_evicted", "count"},
	{"cluster.router.usage_p50_ms", "ms"},
	{"cluster.router.self_ms_per_request", "ms"},
	{"cluster.router.forwards_per_request", "count"},
	{"cluster.ring.owner_ns", "ns"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.alloc_bytes_per_request", "count"},
	{"trace.overhead_latency_p50_frac", "fraction"},
	{"trace.overhead_cpu_frac", "fraction"},
	{"e2e.max_records_per_s", "records/s"},
	{"e2e.max_requests_per_s", "req/s"},
	{"e2e.latency_p50_ms", "ms"},
	{"e2e.usage_p50_ms", "ms"},
	{"e2e.usage_p99_ms", "ms"},
	{"e2e.statement_p50_ms", "ms"},
	{"e2e.statement_p99_ms", "ms"},
	{"e2e.page_p50_ms", "ms"},
	{"e2e.page_p99_ms", "ms"},
	{"e2e.quote_p50_ms", "ms"},
	{"e2e.quote_p99_ms", "ms"},
	{"e2e.failed_frac", "fraction"},
	{"e2e.throttled_frac", "fraction"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	w       *workloadSpec
	seed    int64
	seconds int
	trace   bool
	out     string
	conns   int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: meter-frames, sdk-router-durable or bill-reads")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for results, spans and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{w: workloadByName(*name), seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out,
		conns: runtime.NumCPU()}
	if o.w == nil || *seconds < 5 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (meter-frames|sdk-router-durable|bill-reads), --seconds >= 5, --trace 0|1\n")
		return 2
	}
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := e2eMetrics
	if o.trace {
		defs = layerMetrics
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(res.failures) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		line.Metrics[d.name] = metric{res.metrics[d.name], d.unit}
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	b, _ := json.Marshal(line) // plain structs and finite floats: cannot fail
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	failures  []string
}

// calibrate builds the run's tables with core.Calibrate on a small
// simulated machine seeded by the run seed.
func calibrate(seed int64) (*core.Calibration, error) {
	return core.Calibrate(core.CalibratorConfig{
		Platform:   platform.Config{Machine: engine.CascadeLake(seed), BodyScale: 0.02, Seed: seed},
		Levels:     []int{2, 10, 18},
		References: workload.References()[:4],
	})
}

func execute(o options, stdout io.Writer) (*result, error) {
	w := o.w
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, err
	}
	defer removeAll(work)
	m := map[string]float64{}

	// Inputs: tables, generator, oracle, bill-reads' preloaded ledger.
	t0 := time.Now()
	cal, err := calibrate(o.seed)
	if err != nil {
		return nil, fmt.Errorf("calibrating: %w", err)
	}
	m["core.calibrate_s"] = time.Since(t0).Seconds()
	tables, err := cal.Encode()
	if err != nil {
		return nil, err
	}
	models, err := core.FitModels(cal)
	if err != nil {
		return nil, err
	}
	g := newGenerator(w, o.seed, cal)
	orc := newOracle(models)
	var preloadDir string
	if w.preload {
		if preloadDir, err = os.MkdirTemp(work, "preload"); err != nil {
			return nil, err
		}
		if err := writePreload(g, orc, preloadDir); err != nil {
			return nil, fmt.Errorf("preloading: %w", err)
		}
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		if w.durable {
			dir := preloadDir
			if dir == "" {
				if dir, err = os.MkdirTemp(work, "recover"); err != nil {
					return nil, err
				}
			}
			d, n, err := timeRecovery(w, dir)
			if err != nil {
				return nil, fmt.Errorf("timing recovery: %w", err)
			}
			m["ledger.recover_s"], m["ledger.records_replayed"] = d.Seconds(), float64(n)
		}
	}

	// Set-up, repeated: the first third before the load, the rest spread
	// over the run's idle points (see setUps).
	u, err := newSetUps(w, tables, tr, work, preloadDir)
	if err != nil {
		return nil, err
	}
	runtime.GC() // input generation's garbage is not set-up work
	sys, err := u.run(u.first, true)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	// Load: warm-up, the nominal rung, the ladder, and in a traced run the
	// nominal rung once more with tracing on. Each measured nominal rung
	// starts from a collected heap, so the live-heap peak carries no
	// earlier garbage and does not depend on when the last cycle ran.
	b := newBench(w, g, sys, tr, o.conns)
	total := time.Duration(o.seconds) * time.Second
	nomShare, ladderShare := nominalShare, 100-warmShare-nominalShare
	if o.trace {
		nomShare, ladderShare = tracedShare, tracedShare
	}
	b.runRung(0, w.nominal, total*warmShare/100, time.Second)
	runtime.GC()
	nom := b.measure(1, total*time.Duration(nomShare)/100)
	if err := u.idle(); err != nil {
		return nil, err
	}
	best, visited, err := b.ladder(nom, total*time.Duration(ladderShare)/100, u.idle)
	if err != nil {
		return nil, err
	}
	if _, err := u.run(u.left, false); err != nil {
		return nil, err
	}
	m["setup_s"] = quantile(u.times, 0.5).Seconds()
	var traced measured
	if o.trace {
		runtime.GC()
		tr.on.Store(true)
		traced = b.measure(2, total*tracedShare/100)
		tr.on.Store(false)
	}
	res := &result{metrics: m}
	nst := nom.r.stats()
	if nst.genLateP99ms > genLateBound || nom.r.aborted {
		return nil, fmt.Errorf("invalid run: the generator woke %.3f ms late at p99 on the nominal rung (bound %d ms, aborted %v)",
			nst.genLateP99ms, genLateBound, nom.r.aborted)
	}
	nominalMetrics(&nom, m)

	// Correctness gate.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res.failures = append(res.failures, b.failures...)
	res.failures = append(res.failures, checkAccounting(b.acct)...)
	var replay [][]api.UsageRecord // the traced run's layer replay input
	replayed := 0
	for _, i := range b.sentUsage {
		recs := g.records(i)
		if o.trace && replayed < maxReplayRecords {
			replay = append(replay, recs)
			replayed += len(recs)
		}
		thr := b.throttled[i]
		for j := range recs {
			if slices.Contains(thr, j+1) {
				continue
			}
			if _, _, err := orc.add(&recs[j]); err != nil {
				return nil, err
			}
		}
	}
	listing, err := sys.walkTenants(ctx)
	if err != nil {
		return nil, fmt.Errorf("walking tenants: %w", err)
	}
	res.failures = append(res.failures, checkLedger(orc.want, listing)...)
	res.attempted, res.failed = b.attempted, b.failed
	m["e2e.failed_frac"] = float64(b.failed) / float64(b.attempted)
	if b.acct.sent > 0 {
		m["e2e.throttled_frac"] = float64(b.acct.throttled) / float64(b.acct.sent)
	}
	m["e2e.max_requests_per_s"], m["e2e.max_records_per_s"] = best.thrReq, best.thrRe
	if o.trace {
		if err := layerReport(o, b, tr, &traced, cal, models, replay, work, m, stdout); err != nil {
			return nil, err
		}
	}
	stamp := stampOf(o, len(listing), visited)
	stamp.Params["nominal_s"] = (total * time.Duration(nomShare) / 100).Seconds()
	if d := nom.after.ticks - nom.before.ticks; d > 0 {
		stamp.Params["host_steal_frac_nominal"] = float64(nom.after.steal-nom.before.steal) / float64(d)
	}
	report(o, stamp, m, res, stdout)
	return res, writeResult(o, stamp, m, res)
}

// Shares of --seconds, in percent: the warm-up, the nominal rung of an
// untraced run (the ladder gets the rest), and each of a traced run's
// untraced nominal rung, ladder and traced nominal rung.
const (
	warmShare    = 5
	nominalShare = 45
	tracedShare  = 30
)

// maxReplayRecords caps the records a traced run replays through the
// layers, so the replay stays a few seconds on every workload.
const maxReplayRecords = 200_000

// lowestRung is the bottom of every ladder grid: half the nominal rate.
const lowestRung = -14

// genLateBound is how late, in ms at p99, the generator itself may wake
// for due arrivals on the nominal rung before the run is invalid. Waits
// for a busy connection are the system's and count in the latency.
const genLateBound = 50

// ladder searches the fixed grid nominal·step^k for the highest rung that
// meets the workload's bounds. It starts two grid points below the knee
// the nominal rung predicts (the lower of nproc / CPU per request and
// connections / median latency) and climbs two points at a time until a
// rung fails, then tries the point in between; when the first rung fails
// it steps down two at a time and then tries the point above. A failing
// rung is run once more before it
// counts, so one stall of a shared machine does not end the climb. After
// every rung it calls between, whose time extends the budget. It returns
// the highest passing rung's figures (the nominal rung's when none
// passes) and the grid points visited.
func (b *bench) ladder(nom measured, budget time.Duration, between func() error) (rungStats, []int, error) {
	w := b.w
	var best rungStats
	bestK := math.MinInt
	if st := nom.r.stats(); st.meets(&nom.r, w.limitMs) {
		best, bestK = st, 0
	}
	done := float64(len(nom.r.latencies(anyKind)))
	cpu := (nom.after.cpu - nom.before.cpu).Seconds() / done
	p50 := quantile(nom.r.latencies(anyKind), 0.5).Seconds()
	knee := math.Min(float64(runtime.NumCPU())/cpu, float64(b.conns)/p50)
	k := min(w.rungs-1, max(lowestRung, int(math.Log(knee/w.nominal)/math.Log(w.step))-2))

	var visited []int
	var err error
	deadline := time.Now().Add(budget)
	pass := func(k int) bool {
		for attempt := 0; attempt < 2 && err == nil && time.Until(deadline) >= w.rungDur; attempt++ {
			r := b.runRung(100+k, w.nominal*math.Pow(w.step, float64(k)), w.rungDur, time.Duration(4*w.limitMs)*time.Millisecond)
			t := time.Now()
			err = between()
			deadline = deadline.Add(time.Since(t))
			st := r.stats()
			visited = append(visited, k)
			if st.meets(&r, w.limitMs) {
				if k > bestK {
					best, bestK = st, k
				}
				return true
			}
		}
		return false
	}
	if pass(k) {
		for k += 2; k < w.rungs && pass(k); k += 2 {
		}
		if k-1 > bestK {
			pass(k - 1)
		}
		return best, visited, err
	}
	for k -= 2; k >= lowestRung && !pass(k); k -= 2 {
	}
	if k >= lowestRung {
		pass(k + 1)
	}
	return best, visited, err
}

// nominalMetrics derives the nominal rung's latency, CPU, heap and runtime
// figures into m.
func nominalMetrics(nm *measured, m map[string]float64) {
	r := &nm.r
	st := r.stats()
	// Each latency figure is the median over consecutive slices of the
	// rung of the slice's own figure, so one stall of the shared machine
	// moves it little.
	tail := func(p50Name, p99Name string, kind int) {
		ls := r.latencies(kind)
		if len(ls) < latencySlices {
			return
		}
		var p50, p99 []float64
		for i := range latencySlices {
			sl := ls[i*len(ls)/latencySlices : (i+1)*len(ls)/latencySlices]
			p50 = append(p50, ms(quantile(sl, 0.5)))
			p99 = append(p99, ms(quantile(sl, tailQ(len(sl)))))
		}
		m[p50Name] = median(p50)
		if p99Name != "" {
			m[p99Name] = median(p99)
		}
	}
	tail("e2e.latency_p50_ms", "", anyKind)
	tail("e2e.usage_p50_ms", "e2e.usage_p99_ms", kindUsage)
	tail("e2e.statement_p50_ms", "e2e.statement_p99_ms", kindStatement)
	tail("e2e.page_p50_ms", "e2e.page_p99_ms", kindPage)
	tail("e2e.quote_p50_ms", "e2e.quote_p99_ms", kindQuote)
	done := float64(st.n - st.failed)
	cpu := (nm.after.cpu - nm.before.cpu).Seconds()
	m["cpu_per_request_us"] = cpu * 1e6 / done
	m["heap_peak_mb"] = float64(nm.heapMax) / 1e6
	m["gen.late_p99_ms"] = st.genLateP99ms
	m["gen.late_max_ms"] = st.genLateMaxms
	m["runtime.gc_cpu_frac"] = (nm.after.gcCPU - nm.before.gcCPU) / cpu
	m["runtime.alloc_bytes_per_request"] = (nm.after.allocs - nm.before.allocs) / done
	var bytes, tenants, usage float64
	for _, s := range r.samples {
		if s.ok && s.kind == kindUsage {
			usage++
			bytes += float64(s.respBytes)
			tenants += float64(s.tenants)
		}
	}
	if usage > 0 {
		m["api.response.bytes_per_request"] = bytes / usage
		m["api.response.tenants_per_request"] = tenants / usage
	}
}

// layerReport fills the per-layer metrics of a traced run, prints the
// self-time table and writes the spans.
func layerReport(o options, b *bench, tr *tracer, traced *measured, cal *core.Calibration, models *core.Models,
	sent [][]api.UsageRecord, work string, m map[string]float64, stdout io.Writer) error {
	kids := tr.link()
	tr.spanMetrics(kids, m)
	fmt.Fprintf(stdout, "self time per span (traced nominal rung, %d spans):\n", len(tr.spans))
	printSelfTable(stdout, tr.selfTable(kids))
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.w.name, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "spans written to", path)

	tm := map[string]float64{}
	nominalMetrics(traced, tm)
	m["trace.overhead_latency_p50_frac"] = tm["e2e.latency_p50_ms"]/m["e2e.latency_p50_ms"] - 1
	m["trace.overhead_cpu_frac"] = tm["cpu_per_request_us"]/m["cpu_per_request_us"] - 1

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hs, err := b.sys.health(ctx)
	if err != nil {
		return err
	}
	for _, h := range hs {
		m["ledger.accrued"] += float64(h.Accrued)
		m["ledger.duplicates"] += float64(h.DuplicateAccruals)
		m["ledger.dropped"] += float64(h.DroppedAccruals)
		m["ledger.keys_evicted"] += float64(h.KeysEvicted)
		if h.Admission != nil {
			m["admission.admitted"] += float64(h.Admission.Admitted)
			m["admission.throttled"] += float64(h.Admission.Throttled)
		}
	}
	return replayLayers(b.g, cal, models, sent, work, m)
}

// stamp identifies what produced a result.
type stamp struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	CPU        string         `json:"cpu"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
}

func stampOf(o options, tenantsListed int, visited []int) stamp {
	w := o.w
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	fsync := w.fsync
	if !w.durable {
		fsync = "in-memory"
	}
	return stamp{
		Commit: commit, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Params: map[string]any{
			"wire": w.wire.String(), "batch_records": w.batch, "tenants": w.tenants, "tenant_churn_per_request": w.churn,
			"tenants_listed": tenantsListed, "mix": w.mix, "nodes": w.nodes, "router": w.router, "fsync": fsync,
			"admission_rate": w.admission, "admission_budget": w.budget, "connections": o.conns,
			"nominal_req_per_s":    w.nominal,
			"ladder":               fmt.Sprintf("%g*%g^k, %d<=k<%d, %v/rung", w.nominal, w.step, lowestRung, w.rungs, w.rungDur),
			"ladder_rungs_visited": visited, "latency_limit_ms": w.limitMs, "setups": w.setups,
		},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the run for a reader: every metric by name and unit.
func report(o options, st stamp, m map[string]float64, res *result, stdout io.Writer) {
	sj, _ := json.Marshal(st) // plain values: cannot fail
	fmt.Fprintf(stdout, "stamp %s\n", sj)
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, e2eMetrics...), layerMetrics...) {
		units[d.name] = d.unit
	}
	for _, d := range e2eMetrics {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(stdout, "e2e   %-38s %16.6f %s\n", d.name, v, d.unit)
		}
	}
	for _, d := range layerMetrics {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(stdout, "layer %-38s %16.6f %s\n", d.name, v, d.unit)
		}
	}
	fmt.Fprintf(stdout, "requests %d, failed %d, checks failed %d\n", res.attempted, res.failed, len(res.failures))
}

func writeResult(o options, st stamp, m map[string]float64, res *result) error {
	b, err := json.MarshalIndent(struct {
		Stamp    stamp              `json:"stamp"`
		Metrics  map[string]float64 `json:"metrics"`
		Failures []string           `json:"failures"`
	}{st, m, res.failures}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", o.w.name, o.seed, map[bool]int{false: 0, true: 1}[o.trace])), b, 0o644)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/api"
)

// reqHeader carries the generator's request index to the handler spans.
const reqHeader = "X-Bench-Request"

// sample is one request's timeline, relative to its rung's start. Latency
// is done-due: a request that waited for a free connection is charged the
// wait, as an open-loop user would be. genLate is the generator's own
// lateness: from when the arrival was due, or the generator was free
// again if later, to the hand-off to a connection.
type sample struct {
	kind            int
	ok              bool
	due, sent, done time.Duration
	genLate         time.Duration
	records         int // usage records answered
	respBytes       int
	tenants         int // tenant summaries in a usage response
}

// rung is one fixed-rate stretch of open-loop load.
type rung struct {
	samples []sample // the issued arrivals
	aborted bool     // the generator fell too far behind and stopped
	elapsed time.Duration
}

type job struct {
	k   int
	req request
}

// bench drives one workload against one system.
type bench struct {
	w      *workloadSpec
	g      *generator
	sys    *system
	tr     *tracer
	client *http.Client
	conns  int
	next   int64 // next request index

	mu        sync.Mutex
	acct      accounting
	sentUsage []int64         // usage requests answered in full
	throttled map[int64][]int // their throttled line numbers (1-based)
	attempted int64
	failed    int64
	failures  []string
}

func newBench(w *workloadSpec, g *generator, sys *system, tr *tracer, conns int) *bench {
	return &bench{
		w: w, g: g, sys: sys, tr: tr, conns: conns,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		throttled: map[int64][]int{},
	}
}

func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// runRung offers rate requests/s for dur from one generator goroutine over
// at most b.conns connections. Arrivals are due on the seeded schedule
// whatever the system does; when both connections are busy the due
// request waits and its wait counts. A generator more than abortLate
// behind stops the rung: the system cannot sustain the rate.
func (b *bench) runRung(id int, rate float64, dur, abortLate time.Duration) rung {
	offs := b.g.schedule(id, rate, dur)
	samples := make([]sample, len(offs))
	bufs := make(chan []byte, b.conns+1) // one body per connection plus the one being built
	for range b.conns + 1 {
		bufs <- make([]byte, 0, 64<<10)
	}
	jobs := make(chan job)
	start := time.Now()
	var wg sync.WaitGroup
	var lastDone time.Duration
	var doneMu sync.Mutex
	for range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rb bytes.Buffer
			for j := range jobs {
				b.do(j, &samples[j.k], start, &rb)
				bufs <- j.req.body[:0]
				doneMu.Lock()
				lastDone = max(lastDone, samples[j.k].done)
				doneMu.Unlock()
			}
		}()
	}
	var r rung
	issued := 0
	var free time.Duration // when the last hand-off to a connection returned
	for k, off := range offs {
		req := b.g.request(b.next, <-bufs)
		b.next++
		if d := off - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		now := time.Since(start)
		if now-off > abortLate {
			r.aborted = true
			bufs <- req.body[:0]
			break
		}
		samples[k].due, samples[k].genLate = off, now-max(off, free)
		jobs <- job{k: k, req: req}
		free = time.Since(start)
		issued++
	}
	close(jobs)
	wg.Wait()
	r.samples = samples[:issued]
	r.elapsed = lastDone
	b.mu.Lock()
	b.attempted += int64(issued)
	b.mu.Unlock()
	return r
}

// do sends one request, reads and decodes the whole response, and checks
// it answered every record.
func (b *bench) do(j job, s *sample, start time.Time, rb *bytes.Buffer) {
	req := j.req
	s.kind = req.kind
	hreq, err := http.NewRequest(req.method, b.sys.front+req.path, bytes.NewReader(req.body))
	if err != nil {
		b.fail("request %d: %v", req.idx, err)
		return
	}
	hreq.Header.Set(reqHeader, strconv.FormatInt(req.idx, 10))
	if req.ctype != "" {
		hreq.Header.Set("Content-Type", req.ctype)
	}
	t0 := time.Now()
	s.sent = t0.Sub(start)
	resp, err := b.client.Do(hreq)
	if err == nil {
		rb.Reset()
		_, err = rb.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	s.done = t1.Sub(start)
	if err != nil {
		b.fail("%s %d: %v", kindNames[req.kind], req.idx, err)
		return
	}
	s.respBytes = rb.Len()
	var out any
	var usage api.UsageStreamResponse
	switch req.kind {
	case kindUsage:
		out = &usage
	case kindStatement:
		out = new(api.StatementResponse)
	case kindPage:
		out = new(api.TenantPage)
	case kindQuote:
		out = new(api.QuoteResponse)
	}
	allThrottled := req.kind == kindUsage && resp.StatusCode == http.StatusTooManyRequests
	if resp.StatusCode != http.StatusOK && !allThrottled {
		b.fail("%s %d: status %d: %.200s", kindNames[req.kind], req.idx, resp.StatusCode, rb.Bytes())
		return
	}
	err = json.Unmarshal(rb.Bytes(), out)
	b.tr.span("client."+kindNames[req.kind], t0, t1, req.idx)
	b.tr.span("api.client.decode", t1, time.Now(), req.idx)
	if err != nil {
		b.fail("%s %d: decoding response: %v", kindNames[req.kind], req.idx, err)
		return
	}
	if req.kind == kindUsage && !b.usageAnswered(req, &usage) {
		return
	}
	s.records, s.tenants, s.ok = usage.Lines, len(usage.Tenants), true
}

// usageAnswered folds a usage response into the accounting; false when it
// did not account for every record it was sent.
func (b *bench) usageAnswered(req request, r *api.UsageStreamResponse) bool {
	if r.Lines != req.lines || r.StreamError != "" {
		b.fail("usage %d: %d of %d lines answered, stream error %q", req.idx, r.Lines, req.lines, r.StreamError)
		return false
	}
	var lines []int
	for _, e := range r.Errors {
		if e.Error.Status == http.StatusTooManyRequests {
			lines = append(lines, e.Line)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.acct.sent += int64(req.lines)
	b.acct.fold(r)
	if len(lines) != r.Throttled {
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf("usage %d: %d throttled but %d throttled lines echoed", req.idx, r.Throttled, len(lines)))
		return false
	}
	b.sentUsage = append(b.sentUsage, req.idx)
	if len(lines) > 0 {
		b.throttled[req.idx] = lines
	}
	return true
}

// rungStats summarises one rung.
type rungStats struct {
	n, failed                  int
	records                    int
	p99ms                      float64 // over every request kind
	lateP99ms                  float64 // sent - due: the backlog
	genLateP99ms, genLateMaxms float64 // the generator's own lateness
	thrReq, thrRe              float64 // achieved requests/s and records/s
}

func (r *rung) stats() rungStats {
	st := rungStats{n: len(r.samples)}
	var all, late, gen []time.Duration
	for _, s := range r.samples {
		gen = append(gen, s.genLate)
		if !s.ok {
			st.failed++
			continue
		}
		st.records += s.records
		all = append(all, s.done-s.due)
		late = append(late, s.sent-s.due)
	}
	st.p99ms = ms(quantile(all, 0.99))
	st.lateP99ms = ms(quantile(late, 0.99))
	st.genLateP99ms = ms(quantile(gen, 0.99))
	st.genLateMaxms = ms(quantile(gen, 1))
	if r.elapsed > 0 {
		st.thrReq = float64(st.n-st.failed) / r.elapsed.Seconds()
		st.thrRe = float64(st.records) / r.elapsed.Seconds()
	}
	return st
}

// meets is the ladder's acceptance test for a rung: the p99 latency limit,
// no failed request, and a generator that kept up (lateness p99 within the
// limit and every arrival issued).
func (st rungStats) meets(r *rung, limitMs float64) bool {
	return !r.aborted && st.failed == 0 && st.n > 0 && st.p99ms <= limitMs && st.lateP99ms <= limitMs
}

// anyKind selects every request kind in latencies.
const anyKind = -1

// latencies returns the latencies of one request kind.
func (r *rung) latencies(kind int) []time.Duration {
	var out []time.Duration
	for _, s := range r.samples {
		if s.ok && (kind == anyKind || s.kind == kind) {
			out = append(out, s.done-s.due)
		}
	}
	return out
}

// tailQ is the highest percentile, capped at p99, with at least ten
// samples beyond it.
func tailQ(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// quantile returns the q-quantile of ds by the nearest-rank rule; it sorts
// ds in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencySlices is how many consecutive slices a nominal rung's latencies
// are split into.
const latencySlices = 5

func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// procSnap is what the nominal rung's CPU, GC and allocation figures are
// deltas of.
type procSnap struct {
	cpu    time.Duration // process user+sys
	gcCPU  float64       // seconds
	allocs float64       // bytes
	// Host CPU time stolen by the hypervisor, and all host CPU time, in
	// clock ticks: the stamp's explanation of a noisy run.
	steal, ticks uint64
}

var runtimeNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	p := procSnap{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:  s[0].Value.Float64(),
		allocs: float64(s[1].Value.Uint64()),
	}
	// /proc/stat's first line: "cpu user nice system idle iowait irq
	// softirq steal ..."; absent off Linux, when the figure stays 0.
	if stat, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(stat), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseUint(f, 10, 64)
			p.ticks += v
			if i == 7 {
				p.steal = v
			}
		}
	}
	return p
}

// heapPeak samples the live heap every 10ms until stop is closed, and
// once more then, and returns the peak in bytes. The live heap changes
// only when a GC cycle ends, so one cycle that lands on a transient would
// set a plain maximum: the peak is the median over latencySlices
// consecutive slices of each slice's highest sample, the level the rung
// keeps reaching. A heap that grows through the rung peaks at its end,
// possibly after the last cycle, so the caller collects before closing
// stop and the final sample counts when it is higher.
func heapPeak(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var samples []uint64
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			samples = append(samples, s[0].Value.Uint64())
			select {
			case <-stop:
				metrics.Read(s)
				peaks := make([]float64, latencySlices)
				for i := range peaks {
					lo := i * len(samples) / latencySlices
					peaks[i] = float64(slices.Max(samples[lo:max(lo+1, (i+1)*len(samples)/latencySlices)]))
				}
				out <- max(uint64(median(peaks)), s[0].Value.Uint64())
				return
			case <-t.C:
			}
		}
	}()
	return out
}

// measured is a nominal rung with the process figures taken around it.
type measured struct {
	r       rung
	before  procSnap
	after   procSnap
	heapMax uint64
}

func (b *bench) measure(id int, dur time.Duration) measured {
	stop := make(chan struct{})
	peak := heapPeak(stop)
	m := measured{before: snapProc()}
	m.r = b.runRung(id, b.w.nominal, dur, time.Second)
	m.after = snapProc()
	runtime.GC() // the live heap at the rung's end; see heapPeak
	close(stop)
	m.heapMax = <-peak
	return m
}

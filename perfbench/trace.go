package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one generated
// request share Req; Parent indexes the span that caused this one (-1 for
// a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; they are linked and written out
// when the run ends. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) span(name string, start, end time.Time, req int64) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Parent: -1, Req: req}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a span named layer.<route> around every call of h.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return &spanHandler{t: t, layer: layer, next: h}
}

type spanHandler struct {
	t     *tracer
	layer string
	next  http.Handler
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	var sn *sniffer
	req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	if err != nil {
		// A router forwards sub-batches without the generator's header;
		// their record keys still carry the request index.
		sn = &sniffer{ReadCloser: r.Body}
		r.Body = sn
		req = -1
	}
	h.next.ServeHTTP(w, r)
	if sn != nil {
		req = sn.request()
	}
	h.t.span(h.layer+"."+route(r.URL.Path), start, time.Now(), req)
}

func route(path string) string {
	switch {
	case path == "/v3/usage":
		return "usage"
	case path == "/v3/tenants":
		return "page"
	case strings.HasSuffix(path, "/statement"):
		return "statement"
	case path == "/v2/quote":
		return "quote"
	case path == "/healthz":
		return "health"
	}
	return "other"
}

// sniffer keeps the first bytes of a request body.
type sniffer struct {
	io.ReadCloser
	head []byte
}

func (s *sniffer) Read(p []byte) (int, error) {
	n, err := s.ReadCloser.Read(p)
	if room := 512 - len(s.head); room > 0 {
		s.head = append(s.head, p[:min(n, room)]...)
	}
	return n, err
}

// request finds the first record key ("rq" + keyDigits digits + ".").
func (s *sniffer) request() int64 {
	b := s.head
	for i := 0; i+3+keyDigits <= len(b); i++ {
		if b[i] != 'r' || b[i+1] != 'q' || b[i+2+keyDigits] != '.' {
			continue
		}
		if n, err := strconv.ParseInt(string(b[i+2:i+2+keyDigits]), 10, 64); err == nil {
			return n
		}
	}
	return -1
}

// link sets each span's parent: a node handler span's parent is the
// router span of the same request when there is one, else the client
// span; a router span's parent is the client span. It returns the
// children of every span.
func (t *tracer) link() [][]int {
	client := map[int64]int{}
	router := map[int64]int{}
	for i, s := range t.spans {
		switch {
		case strings.HasPrefix(s.Name, "client."):
			client[s.Req] = i
		case strings.HasPrefix(s.Name, "cluster.router."):
			router[s.Req] = i
		}
	}
	kids := make([][]int, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		p, ok := -1, false
		switch {
		case strings.HasPrefix(s.Name, "api.server."):
			if p, ok = router[s.Req]; !ok {
				p, ok = client[s.Req]
			}
		case strings.HasPrefix(s.Name, "cluster.router."), s.Name == "api.client.decode":
			p, ok = client[s.Req]
		}
		if ok {
			s.Parent = p
			kids[p] = append(kids[p], i)
		}
	}
	return kids
}

// selfTime is a span's duration minus the part of it its children cover.
func (t *tracer) selfTime(i int, kids []int) time.Duration {
	s := &t.spans[i]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		c := &t.spans[k]
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return s.dur() - time.Duration(covered)
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name  string
	spans int
	self  time.Duration
}

func (t *tracer) selfTable(kids [][]int) []layerRow {
	rows := map[string]*layerRow{}
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.spans++
		r.self += t.selfTime(i, kids[i])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func printSelfTable(w io.Writer, rows []layerRow) {
	var total time.Duration
	for _, r := range rows {
		total += r.self
	}
	fmt.Fprintf(w, "%-28s %8s %14s %12s %7s\n", "span", "count", "self_ms_mean", "self_s_total", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %14.4f %12.4f %6.1f%%\n", r.name, r.spans,
			ms(r.self)/float64(r.spans), r.self.Seconds(), 100*float64(r.self)/float64(max(total, 1)))
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics derives the per-layer numbers the spans carry.
func (t *tracer) spanMetrics(kids [][]int, m map[string]float64) {
	durs := map[string][]time.Duration{}
	var overhead []time.Duration
	var routerSelf time.Duration
	routerN, forwards := 0, 0
	for i, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], s.dur())
		if !strings.HasPrefix(s.Name, "client.") {
			continue
		}
		// The handler span the client reached: the router's when routed.
		for _, k := range kids[i] {
			if c := &t.spans[k]; c.Name != "api.client.decode" {
				overhead = append(overhead, s.dur()-c.dur())
				break
			}
		}
	}
	for i, s := range t.spans {
		if s.Name == "cluster.router.usage" {
			routerN++
			forwards += len(kids[i])
			routerSelf += t.selfTime(i, kids[i])
		}
	}
	p50 := func(name string) float64 { return ms(quantile(durs[name], 0.5)) }
	m["api.server.usage_p50_ms"] = p50("api.server.usage")
	m["api.server.usage_p99_ms"] = ms(quantile(durs["api.server.usage"], tailQ(len(durs["api.server.usage"]))))
	m["api.server.statement_p50_ms"] = p50("api.server.statement")
	m["api.server.page_p50_ms"] = p50("api.server.page")
	m["api.server.quote_p50_ms"] = p50("api.server.quote")
	m["api.client.overhead_p50_ms"] = ms(quantile(overhead, 0.5))
	var dec time.Duration
	for _, d := range durs["api.client.decode"] {
		dec += d
	}
	if n := len(durs["api.client.decode"]); n > 0 {
		m["api.client.response_decode_us"] = float64(dec) / 1e3 / float64(n)
	}
	m["cluster.router.usage_p50_ms"] = p50("cluster.router.usage")
	if routerN > 0 {
		m["cluster.router.self_ms_per_request"] = ms(routerSelf) / float64(routerN)
		m["cluster.router.forwards_per_request"] = float64(forwards) / float64(routerN)
	}
}

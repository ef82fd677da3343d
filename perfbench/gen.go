package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"net/url"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/workload"
)

// Request kinds of the open-loop mix.
const (
	kindUsage = iota
	kindStatement
	kindPage
	kindQuote
	numKinds
)

var kindNames = [numKinds]string{"usage", "statement", "page", "quote"}

// RNG streams: every random draw comes from PCG(seed, stream, index), so a
// request's body depends on nothing but the seed and its own index.
const (
	streamRequest = 1 + iota
	streamSchedule
	streamTemplate
	streamPreload
)

// keyDigits is the width of the request index inside a record key
// ("rq" + 9 digits + "." + 3 digits). Server-side spans recover the
// request a forwarded sub-batch belongs to from it.
const keyDigits = 9

var memSizes = []int{128, 256, 512, 1024, 2048}

// request is one generated HTTP call. Only the body and the URL reach the
// system under test.
type request struct {
	idx    int64
	kind   int
	method string
	path   string
	ctype  string
	body   []byte
	lines  int // records in a usage body
}

// frameTemplate is one pre-encoded binary usage batch of meter-frames. A
// request copies it and writes its own index into every record key, then
// re-seals each frame's CRC, so the body differs per request while the
// generator stays cheap next to the system it measures.
type frameTemplate struct {
	body   []byte
	recs   []api.UsageRecord
	keyOff []int    // offset of each record's request-index digits
	frame  [][2]int // payload [start, end) of each frame
}

// generator builds a workload's inputs. Everything it returns is a pure
// function of the seed and the arguments.
type generator struct {
	w     *workloadSpec
	seed  uint64
	solo  map[string]core.SoloStartup
	specs []*workload.Spec
	names []string // fixed tenant population (meter-frames, bill-reads)
	tmpl  []frameTemplate
}

func newGenerator(w *workloadSpec, seed int64, cal *core.Calibration) *generator {
	g := &generator{w: w, seed: uint64(seed), solo: cal.SoloStartups, specs: workload.Catalog()}
	if w.tenants > 0 {
		g.names = make([]string, w.tenants)
		for i := range g.names {
			g.names[i] = tenantName(int64(i))
		}
	}
	if w.templates > 0 {
		g.tmpl = make([]frameTemplate, w.templates)
		for t := range g.tmpl {
			g.tmpl[t] = g.frameTemplate(t)
		}
	}
	return g
}

func tenantName(id int64) string { return fmt.Sprintf("tn-%07d", id) }

func (g *generator) rng(stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed^(stream*0x9e3779b97f4a7c15), i))
}

// popular draws a tenant of the fixed population with Zipf-skewed
// popularity; the rank → tenant map is a seeded bijection so the hot
// tenants are scattered over the name space (and the ledger's shards).
func (g *generator) popular(r *rand.Rand) string {
	n := uint64(len(g.names))
	rank := rand.NewZipf(r, 1.1, 4, n-1).Uint64()
	return g.names[(rank*1_000_003+g.seed)%n]
}

// record draws one usage record: a catalog function with its language,
// a memory size, occupancy, and a probe reading congested 0–60% (private)
// and 0–150% (shared) above the calibrated solo startup.
func (g *generator) record(r *rand.Rand, tenant string, minute int, key string) api.UsageRecord {
	sp := g.specs[r.IntN(len(g.specs))]
	lang := sp.Language.String()
	solo := g.solo[lang]
	tp := 0.005 + 0.4*r.Float64()
	return api.UsageRecord{
		QuoteRequest: api.QuoteRequest{
			Usage: core.Usage{
				Abbr:     sp.Abbr,
				Language: lang,
				MemoryMB: memSizes[r.IntN(len(memSizes))],
				TPrivate: tp,
				TShared:  tp * (0.05 + 0.4*r.Float64()),
				Probe: &core.ProbeUsage{
					TPrivate:        solo.TPrivate * (1 + 0.6*r.Float64()),
					TShared:         solo.TShared * (1 + 1.5*r.Float64()),
					MachineL3Misses: 1e5 * math.Pow(200, r.Float64()),
				},
			},
			Tenant: tenant,
		},
		Minute: minute,
		Key:    key,
	}
}

func recordKey(req int64, j int) string { return fmt.Sprintf("rq%09d.%03d", req, j) }

func (g *generator) frameTemplate(t int) frameTemplate {
	r := g.rng(streamTemplate, uint64(t))
	ft := frameTemplate{recs: make([]api.UsageRecord, g.w.batch)}
	for j := range ft.recs {
		rec := g.record(r, g.popular(r), t%60, recordKey(0, j))
		ft.recs[j] = rec
		// A frame is an 8-byte header (length, CRC) and the payload; the
		// key's digits follow its fixed "rq" prefix inside this payload.
		payload := len(ft.body) + 8
		ft.body = api.AppendUsageFrame(ft.body, &rec)
		off := payload + bytes.Index(ft.body[payload:], []byte("rq000000000."))
		ft.keyOff = append(ft.keyOff, off+2)
		ft.frame = append(ft.frame, [2]int{payload, len(ft.body)})
	}
	return ft
}

// kindOf draws request i's kind from the workload mix.
func (g *generator) kindOf(r *rand.Rand) int {
	if g.w.mix == [numKinds]float64{} {
		return kindUsage
	}
	x := r.Float64()
	for k, p := range g.w.mix {
		if x < p {
			return k
		}
		x -= p
	}
	return kindUsage
}

// records returns request i's usage records, or nil when request i is not
// a usage write. The oracle calls it after the run to price exactly what
// was sent.
func (g *generator) records(i int64) []api.UsageRecord {
	r := g.rng(streamRequest, uint64(i))
	if g.kindOf(r) != kindUsage {
		return nil
	}
	return g.usageRecords(r, i)
}

func (g *generator) usageRecords(r *rand.Rand, i int64) []api.UsageRecord {
	w := g.w
	recs := make([]api.UsageRecord, w.batch)
	switch {
	case g.tmpl != nil:
		copy(recs, g.tmpl[i%int64(len(g.tmpl))].recs)
		for j := range recs {
			recs[j].Key = recordKey(i, j)
		}
	case w.churn > 0:
		// 1–4 tenants drawn from a window that slides past w.churn new
		// tenant IDs per request: the population keeps turning over.
		ids := make([]int64, 1+r.IntN(4))
		for k := range ids {
			ids[k] = i*int64(w.churn) + int64(r.IntN(w.window))
		}
		for j := range recs {
			recs[j] = g.record(r, tenantName(ids[j%len(ids)]), int(i/512), recordKey(i, j))
		}
	default:
		for j := range recs {
			recs[j] = g.record(r, g.popular(r), 60+int(i/2048), recordKey(i, j))
		}
	}
	return recs
}

// request builds request i, appending its body to buf.
func (g *generator) request(i int64, buf []byte) request {
	r := g.rng(streamRequest, uint64(i))
	req := request{idx: i, kind: g.kindOf(r), method: "GET"}
	switch req.kind {
	case kindUsage:
		req.method, req.path, req.lines = "POST", "/v3/usage", g.w.batch
		req.ctype = g.w.wire.ContentType()
		if g.tmpl != nil {
			req.body = g.patchTemplate(i, buf)
			break
		}
		req.body = buf
		for _, rec := range g.usageRecords(r, i) {
			line, _ := json.Marshal(rec) // plain structs: cannot fail
			req.body = append(append(req.body, line...), '\n')
		}
	case kindStatement:
		req.path = "/v3/tenants/" + url.PathEscape(g.popular(r)) + "/statement"
	case kindPage:
		req.path = "/v3/tenants?limit=100&cursor=" + url.QueryEscape(g.names[r.IntN(len(g.names))])
	case kindQuote:
		rec := g.record(r, "", 0, "")
		req.method, req.path, req.ctype = "POST", "/v2/quote", "application/json"
		line, _ := json.Marshal(rec.QuoteRequest)
		req.body = append(buf, line...)
	}
	return req
}

func (g *generator) patchTemplate(i int64, buf []byte) []byte {
	ft := &g.tmpl[i%int64(len(g.tmpl))]
	body := append(buf, ft.body...)
	var digits [keyDigits]byte
	for k, v := keyDigits-1, i; k >= 0; k, v = k-1, v/10 {
		digits[k] = byte('0' + v%10)
	}
	for j, off := range ft.keyOff {
		copy(body[off:], digits[:])
		p := ft.frame[j]
		binary.LittleEndian.PutUint32(body[p[0]-4:], crc32.ChecksumIEEE(body[p[0]:p[1]]))
	}
	return body
}

// schedule returns the due offsets of one rung: rate·dur arrivals, one
// per 1/rate slot at a seeded uniform position inside the slot. The
// jitter keeps arrivals from phase-locking with the server while the
// spacing never bunches into bursts a Poisson process would add.
func (g *generator) schedule(rung int, rate float64, dur time.Duration) []time.Duration {
	r := g.rng(streamSchedule, uint64(rung))
	out := make([]time.Duration, int(rate*dur.Seconds()))
	for k := range out {
		out[k] = time.Duration((float64(k) + r.Float64()) / rate * float64(time.Second))
	}
	return out
}

// preload returns the records bill-reads' ledger holds before the run:
// every tenant of the population gets 1–3 records over minutes 0–59.
func (g *generator) preload(tenant int) []api.UsageRecord {
	r := g.rng(streamPreload, uint64(tenant))
	recs := make([]api.UsageRecord, 1+r.IntN(3))
	for j := range recs {
		recs[j] = g.record(r, g.names[tenant], r.IntN(60), fmt.Sprintf("pl%07d.%d", tenant, j))
	}
	return recs
}

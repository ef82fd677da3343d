package api

// The /v3 surface is resource-oriented: usage is an append-only stream,
// tenants are a paginated collection, statements are windowed reads of the
// ledger, and the calibration tables are a versioned resource guarded by
// ETag/If-Match. All accrual goes through the same
// Server.priceAndAccrue → ledger path as /v1 and /v2, so the API versions
// cannot bill differently.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/ledger"
)

// --- POST /v3/usage ----------------------------------------------------------

// accrueBatchSize is the collector's flush threshold: priced results are
// billed through ledger.AccrueBatch in runs of this size, so a durable
// ledger group-commits one fsync per run instead of one per record.
const accrueBatchSize = 256

// handleUsageStream ingests a usage stream — NDJSON, or binary frames under
// ContentTypeFrames (see frames.go) — decoded in constant memory, so
// streams can run far beyond the /v2 batch cap. Bad lines are rejected
// individually while the rest of the stream accrues, and lines carrying (or
// inheriting) an idempotency key can be retried without double-billing.
//
// Each stream runs one serial loop on the handler goroutine: a UsageSource
// yields records in stream order, each is priced and handed to the
// collector, which bills in batches. In-stream order is therefore billing
// order — when two lines in one stream carry the same idempotency key, the
// first always bills and the later one is the Duplicate. Concurrency comes
// from concurrent streams accruing in parallel against the sharded ledger.
func (s *Server) handleUsageStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		v2Error(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeFrames) {
		s.ingestUsage(w, r, newNDJSONSource(r.Body, s.cfg.MaxBodyBytes, s.cfg.MaxStreamLines))
		return
	}
	src, _ := s.framePool.Get().(*frameSource)
	if src == nil {
		src = newFrameSource(r.Body, s.cfg.MaxBodyBytes, s.cfg.MaxStreamLines)
	} else {
		src.reset(r.Body)
	}
	s.ingestUsage(w, r, src)
	if src.release() {
		s.framePool.Put(src)
	}
}

// ingestUsage is the stream loop both wire formats share: validate, price
// and collect each record the source yields, in order, then render the
// response. One registry snapshot serves the whole stream, so every line
// prices against the same table generation even if tables are swapped
// mid-stream.
func (s *Server) ingestUsage(w http.ResponseWriter, r *http.Request, src UsageSource) {
	pricers := s.snapshot()
	streamKey := r.Header.Get("Idempotency-Key")
	col := s.newUsageCollector()
	var memo pricerMemo
	streamErr := ""
	for {
		lineNo, rec, lineErr, err := src.Next()
		if err != nil {
			// The line that overran the byte cap is the last the stream
			// yields: account it after the final flush, so the per-line
			// errors stay in line order.
			col.flush()
			if lineErr != nil {
				col.reject(lineNo, lineErr)
			}
			if err != io.EOF {
				streamErr = err.Error()
			}
			break
		}
		if lineErr == nil {
			var entry ledger.Entry
			entry, lineErr = s.priceRecord(pricers, &memo, streamKey, lineNo, rec)
			if lineErr == nil {
				col.add(lineNo, &entry)
				continue
			}
		}
		col.reject(lineNo, lineErr)
	}
	s.finishUsage(w, col, streamErr)
}

// priceRecord validates and prices one decoded record into the ledger entry
// the collector will bill — no accrual. A record without its own key
// inherits one derived from the stream's Idempotency-Key and its physical
// line (or frame) number, so replaying the whole stream under the same key
// is a no-op in either wire format.
func (s *Server) priceRecord(pricers map[string]core.Pricer, memo *pricerMemo, streamKey string, lineNo int, rec *UsageRecord) (ledger.Entry, *Error) {
	if rec.Minute < 0 {
		return ledger.Entry{}, badLine("negative minute %d", rec.Minute)
	}
	if int64(rec.Minute) > ledger.MaxMinute {
		return ledger.Entry{}, badLine("minute %d exceeds %d", rec.Minute, ledger.MaxMinute)
	}
	pricer, commercial, price, apiErr := s.priceForStream(pricers, memo, &rec.QuoteRequest)
	if apiErr != nil {
		return ledger.Entry{}, apiErr
	}
	key := rec.Key
	if key == "" && streamKey != "" {
		key = fmt.Sprintf("%s#%d", streamKey, lineNo)
	}
	return ledger.Entry{
		Tenant:     rec.Tenant,
		Pricer:     pricer,
		Minute:     rec.Minute,
		Commercial: commercial,
		Price:      price,
		Key:        key,
	}, nil
}

// finishUsage renders a usage stream's terminal response: the stream error
// and the post-accrual summaries of every touched tenant. Throttled lines
// surface twice: the Retry-After header always accompanies them, and when
// the admission limiter rejected every line the status is 429 — a
// single-record client sees a plain HTTP throttle — while a partially
// admitted stream stays 200 with per-line 429s, because its accounting and
// accruals are a success the client must not discard. The body is the full
// UsageStreamResponse either way.
func (s *Server) finishUsage(w http.ResponseWriter, col *usageCollector, streamErr string) {
	col.resp.StreamError = streamErr
	names := make([]string, 0, len(col.touched))
	for name := range col.touched {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if sum, ok := s.summaryOf(name); ok {
			col.resp.Tenants = append(col.resp.Tenants, sum)
		}
	}
	status := http.StatusOK
	if col.resp.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", RetryAfterHeader(col.resp.RetryAfterSec))
	}
	if col.resp.Lines > 0 && col.resp.Throttled == col.resp.Lines {
		status = http.StatusTooManyRequests
	}
	writeJSON(w, status, col.resp)
	col.release()
}

// usageCollector owns a usage stream's response accounting and its billing:
// results are applied strictly in stream order, priced lines are buffered
// and billed through the batched accrual funnel (one WAL group commit per
// accrueBatchSize records), and counters, the capped error list and dedup
// outcomes behave exactly as a sequential per-record pass would — the
// differential tests hold both wire formats to that.
type usageCollector struct {
	s       *Server
	resp    UsageStreamResponse
	touched map[string]bool
	// entries buffers the priced, not-yet-billed records; lines carries
	// their 1-based stream positions in parallel.
	entries []ledger.Entry
	lines   []int
	results []ledger.AccrualResult
}

// collectorPool recycles usageCollectors across streams: the entry/line/
// result buffers and the touched set dominate steady-state ingest
// allocations once the wire format itself is allocation-free.
var collectorPool = sync.Pool{New: func() any {
	return &usageCollector{touched: map[string]bool{}}
}}

func (s *Server) newUsageCollector() *usageCollector {
	c := collectorPool.Get().(*usageCollector)
	c.s = s
	return c
}

// release clears everything the stream observed and returns the collector
// to the pool. Callers must not touch the collector afterwards.
func (c *usageCollector) release() {
	if len(c.touched) > 4096 {
		// Don't let one many-tenant stream pin a giant set for every
		// later stream to inherit (same hygiene as maxPooledLine).
		return
	}
	c.s = nil
	clear(c.touched)
	c.resp = UsageStreamResponse{Errors: c.resp.Errors[:0], Tenants: c.resp.Tenants[:0]}
	c.entries = c.entries[:0]
	c.lines = c.lines[:0]
	collectorPool.Put(c)
}

// add accounts one priced line: it passes the admission gate and becomes a
// ledger entry waiting for the next batched accrual. The gate runs here —
// after validation, before accrual, in strict stream order — so both wire
// formats share one admission point and a throttled record can never reach
// the ledger. A key the ledger already recorded bypasses the gate: it is a
// retry, not new load — it cannot bill again, and if duplicates consumed
// tokens a whole-batch resend could livelock, the already-billed head
// eating every refilled token before the formerly throttled tail reached
// the bucket. Unkeyed records always pay.
func (c *usageCollector) add(line int, e *ledger.Entry) {
	c.resp.Lines++
	if adm := c.s.admission; adm != nil && !c.s.ledger.Seen(e.Tenant, e.Key) {
		if ok, retryAfter := adm.Allow(e.Tenant); !ok {
			sec := retryAfter.Seconds()
			if sec > c.resp.RetryAfterSec {
				c.resp.RetryAfterSec = sec
			}
			c.fold(line, "", ledger.Dropped, &Error{
				Status:        http.StatusTooManyRequests,
				Message:       fmt.Sprintf("tenant %q over admission rate", e.Tenant),
				RetryAfterSec: sec,
			})
			return
		}
	}
	c.entries = append(c.entries, *e)
	c.lines = append(c.lines, line)
	if len(c.entries) >= accrueBatchSize {
		c.flush()
	}
}

// reject accounts one line decided before accrual — a decode, validation
// or pricing failure, or the line that overran the byte cap.
func (c *usageCollector) reject(line int, apiErr *Error) {
	c.resp.Lines++
	c.fold(line, "", ledger.Dropped, apiErr)
}

// fold applies one decided line to the response counters.
func (c *usageCollector) fold(line int, tenant string, outcome ledger.Outcome, apiErr *Error) {
	if apiErr != nil {
		switch apiErr.Status {
		case http.StatusServiceUnavailable:
			c.resp.Dropped++
		case http.StatusTooManyRequests:
			c.resp.Throttled++
		default:
			c.resp.Rejected++
		}
		if len(c.resp.Errors) < DefaultMaxStreamErrors {
			c.resp.Errors = append(c.resp.Errors, LineError{Line: line, Error: *apiErr})
		}
		return
	}
	if outcome == ledger.Duplicate {
		c.resp.Duplicates++
	} else {
		c.resp.Accepted++
	}
	// Check-then-assign: on a warm stream the tenant is already present,
	// and a map read is cheaper than re-assigning every record.
	if !c.touched[tenant] {
		c.touched[tenant] = true
	}
}

// flush bills the buffered priced lines in order through ledger.AccrueBatch
// and folds each outcome into the response. The standby gate is checked
// here — the batched counterpart of Server.accrue's gate — so no collector
// path can bill into a ledger replication owns.
//
//litmus:allow-accrue the stream collectors' batched delegate of accrue: same entries, same standby gate, one WAL group commit per flush
func (c *usageCollector) flush() {
	if len(c.entries) == 0 {
		return
	}
	if c.s.standby.Load() {
		stErr := &Error{Status: http.StatusServiceUnavailable, Message: "standby: writes go to the primary"}
		for _, line := range c.lines {
			c.fold(line, "", ledger.Dropped, stErr)
		}
		c.entries = c.entries[:0]
		c.lines = c.lines[:0]
		return
	}
	if cap(c.results) < len(c.entries) {
		c.results = make([]ledger.AccrualResult, len(c.entries))
	}
	results := c.results[:len(c.entries)]
	c.s.ledger.AccrueBatch(c.entries, results)
	for i := range c.entries {
		outcome, apiErr := c.s.mapAccrual(results[i].Outcome, results[i].Err)
		c.fold(c.lines[i], c.entries[i].Tenant, outcome, apiErr)
	}
	c.entries = c.entries[:0]
	c.lines = c.lines[:0]
}

// --- GET /v3/tenants ---------------------------------------------------------

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		v2Error(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	limit := DefaultTenantPageLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			v2Error(w, http.StatusBadRequest, "limit must be a positive integer, got %q", v)
			return
		}
		limit = min(n, MaxTenantPageLimit)
	}
	sums, next := s.ledger.Tenants(q.Get("cursor"), limit)
	page := TenantPage{NextCursor: next, Tenants: make([]TenantSummary, 0, len(sums))}
	for _, sum := range sums {
		page.Tenants = append(page.Tenants, wireSummary(sum))
	}
	writeJSON(w, http.StatusOK, page)
}

// --- GET /v3/tenants/{tenant}/statement --------------------------------------

func (s *Server) handleStatement(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		v2Error(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	tenant := r.PathValue("tenant")
	q := r.URL.Query()
	from, to := 0, -1
	if v := q.Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			v2Error(w, http.StatusBadRequest, "from must be a non-negative trace minute, got %q", v)
			return
		}
		from = n
	}
	if v := q.Get("to"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			v2Error(w, http.StatusBadRequest, "to must be a non-negative trace minute, got %q", v)
			return
		}
		to = n
	}
	if to >= 0 && to < from {
		v2Error(w, http.StatusBadRequest, "empty minute range [%d, %d]", from, to)
		return
	}
	st, ok := s.ledger.Statement(tenant, from, to)
	if !ok {
		v2Error(w, http.StatusNotFound, "no ledger for tenant %q", tenant)
		return
	}
	resp := StatementResponse{
		Tenant:        st.Tenant,
		WindowMinutes: st.WindowMinutes,
		FromMinute:    st.FromMinute,
		ToMinute:      st.ToMinute,
		Invocations:   st.Invocations,
		Commercial:    st.Commercial,
		Billed:        st.Billed,
		Discount:      st.Discount,
		Lines:         make([]StatementLine, 0, len(st.Lines)),
	}
	for _, line := range st.Lines {
		resp.Lines = append(resp.Lines, StatementLine{
			Window:      line.Window,
			StartMinute: line.StartMinute,
			Invocations: line.Invocations,
			Commercial:  line.Commercial,
			Billed:      line.Billed,
			Bills:       line.Bills,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- /v3/tables --------------------------------------------------------------

// handleTablesV3 serves the calibration tables as a versioned resource.
// Every response carries the version as a strong ETag; PUT with If-Match
// only swaps when the caller's version is still current, so two agents
// doing read-modify-write calibration updates cannot silently overwrite
// each other (the loser gets 412 and re-reads).
func (s *Server) handleTablesV3(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.RLock()
		cal := s.cal
		etag := s.etagLocked()
		s.mu.RUnlock()
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		writeJSON(w, http.StatusOK, cal)
	case http.MethodPut, http.MethodPost:
		cal, models, ok := s.decodeTables(w, r)
		if !ok {
			return
		}
		ifMatch := r.Header.Get("If-Match")
		etag, swapped := s.swapTables(cal, models, ifMatch)
		w.Header().Set("ETag", etag)
		if !swapped {
			v2Error(w, http.StatusPreconditionFailed,
				"table version mismatch: If-Match %s but current version is %s", ifMatch, etag)
			return
		}
		writeJSON(w, http.StatusOK, TablesStatus{
			Machine:      cal.Machine,
			SharePerCore: cal.SharePerCore,
			Generators:   len(cal.Generators),
			Languages:    len(cal.SoloStartups),
		})
	default:
		v2Error(w, http.StatusMethodNotAllowed, "GET or PUT only")
	}
}

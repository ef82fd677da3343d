package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/admission"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ledger"
)

// replayLayers times each layer's public entry points on the run's own
// generated records, outside HTTP: frames and NDJSON decode (api),
// pricing and model fitting (core), Allow and Tick (admission), batched
// accrual, summaries, statements and pages (ledger), and ring lookups
// (cluster). recs are the usage requests the run sent, in order.
func replayLayers(g *generator, cal *core.Calibration, models *core.Models, recs [][]api.UsageRecord,
	scratch string, m map[string]float64) error {
	w := g.w
	var flat []*api.UsageRecord
	for _, batch := range recs {
		for i := range batch {
			flat = append(flat, &batch[i])
		}
	}
	if len(flat) == 0 {
		return fmt.Errorf("replay: no records")
	}
	perRecord := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

	// api: decode both wire formats.
	var frames, lines []byte
	for _, r := range flat {
		frames = api.AppendUsageFrame(frames, r)
		b, _ := json.Marshal(r) // plain structs: cannot fail
		lines = append(append(lines, b...), '\n')
	}
	t0 := time.Now()
	fr := api.NewFrameReader(bytes.NewReader(frames), api.DefaultMaxBodyBytes)
	var dec api.FrameDecoder
	for {
		payload, crc, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("replay frames: %w", err)
		}
		if _, apiErr := dec.Decode(payload, crc); apiErr != nil {
			return fmt.Errorf("replay frames: %v", apiErr)
		}
	}
	m["api.frames.decode_ns_per_record"] = perRecord(time.Since(t0), len(flat))
	t0 = time.Now()
	for rest := lines; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n')
		var rec api.UsageRecord
		if err := json.Unmarshal(rest[:i], &rec); err != nil {
			return fmt.Errorf("replay ndjson: %w", err)
		}
		rest = rest[i+1:]
	}
	m["api.ndjson.decode_ns_per_record"] = perRecord(time.Since(t0), len(flat))

	// core: litmus pricing and model fitting.
	litmus := core.Litmus{Models: models, RateBase: 1}
	entries := make([]ledger.Entry, len(flat))
	t0 = time.Now()
	for i, r := range flat {
		q, err := litmus.Quote(r.Usage)
		if err != nil {
			return fmt.Errorf("replay quote: %w", err)
		}
		entries[i] = ledger.Entry{Tenant: r.Tenant, Pricer: api.DefaultPricer, Minute: r.Minute,
			Commercial: q.Commercial, Price: q.Price, Key: r.Key}
	}
	m["core.quote_ns_per_record"] = perRecord(time.Since(t0), len(flat))
	fits := make([]time.Duration, 5)
	for i := range fits {
		t0 = time.Now()
		if _, err := core.FitModels(cal); err != nil {
			return err
		}
		fits[i] = time.Since(t0)
	}
	m["core.fit_models_ms"] = ms(quantile(fits, 0.5))

	// ledger: in-memory batched accrual in the workload's batch size, on
	// top of the preloaded state when there is one.
	led, err := ledger.New(ledger.Config{MaxTenants: w.maxTenants, Shards: api.DefaultShards})
	if err != nil {
		return err
	}
	defer led.Close()
	for t := range g.names {
		if !w.preload {
			break
		}
		batch := g.preload(t)
		for i := range batch {
			r := &batch[i]
			q, err := litmus.Quote(r.Usage)
			if err != nil {
				return err
			}
			if _, err := led.Accrue(ledger.Entry{Tenant: r.Tenant, Pricer: api.DefaultPricer, Minute: r.Minute,
				Commercial: q.Commercial, Price: q.Price, Key: r.Key}); err != nil {
				return err
			}
		}
	}
	results := make([]ledger.AccrualResult, w.batch)
	t0 = time.Now()
	for i := 0; i < len(entries); i += w.batch {
		end := min(i+w.batch, len(entries))
		led.AccrueBatch(entries[i:end], results)
	}
	m["ledger.accrue_ns_per_record"] = perRecord(time.Since(t0), len(entries))

	// Durable accrual: the first batches only, fsync as the workload sets
	// it (always when in-memory), in a fresh directory.
	durN := min(len(entries), 64*w.batch, 8192)
	dir, err := os.MkdirTemp(scratch, "replay")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	fsync := ledger.FsyncAlways
	if w.fsync != "" {
		if fsync, err = ledger.ParseFsyncMode(w.fsync); err != nil {
			return err
		}
	}
	dled, err := ledger.New(ledger.Config{MaxTenants: w.maxTenants, Shards: api.DefaultShards, Dir: dir, Fsync: fsync, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < durN; i += w.batch {
		dled.AccrueBatch(entries[i:min(i+w.batch, durN)], results)
	}
	m["ledger.accrue_durable_ns_per_record"] = perRecord(time.Since(t0), durN)
	ds := dled.Durability()
	m["ledger.syncs_per_1k_records"] = 1000 * float64(ds.Syncs) / float64(durN)
	m["ledger.wal_bytes_per_record"] = float64(ds.WALBytes) / float64(durN)
	if err := dled.Close(); err != nil {
		return err
	}

	// Reads: a summary per accrued record (what a usage response carries),
	// statements of the first 2000 records' tenants, and 500 pages.
	t0 = time.Now()
	for _, e := range entries {
		led.Summary(e.Tenant)
	}
	m["ledger.summary_ns"] = perRecord(time.Since(t0), len(entries))
	nst := min(len(entries), 2000)
	t0 = time.Now()
	for _, e := range entries[:nst] {
		led.Statement(e.Tenant, 0, -1)
	}
	m["ledger.statement_us"] = perRecord(time.Since(t0), nst) / 1e3
	t0 = time.Now()
	for i := range 500 {
		led.Tenants(entries[(i*7919)%len(entries)].Tenant, 100)
	}
	m["ledger.page_us"] = perRecord(time.Since(t0), 500) / 1e3

	// admission: Allow per record, with a Tick every forecast window's
	// worth of nominal-rate arrivals, in the SUT's configuration.
	rate, budget := w.admission, w.budget
	if rate == 0 {
		rate = 1e6
	}
	ctl := admission.New(admission.Config{Rate: rate, Budget: budget, Stats: led, Manual: true})
	defer ctl.Close()
	perWindow := max(1, int(2*w.nominal)*w.batch)
	var allow, tickMax time.Duration
	for i, r := range flat {
		t0 = time.Now()
		ctl.Allow(r.Tenant)
		allow += time.Since(t0)
		if (i+1)%perWindow == 0 {
			t0 = time.Now()
			ctl.Tick()
			tickMax = max(tickMax, time.Since(t0))
		}
	}
	t0 = time.Now()
	ctl.Tick()
	tickMax = max(tickMax, time.Since(t0))
	m["admission.allow_ns"] = perRecord(allow, len(flat))
	m["admission.tick_ms_max"] = ms(tickMax)

	// cluster: ring owner lookups over three nodes.
	ring, err := cluster.NewRing([]cluster.Node{{Name: "n0", URL: "a"}, {Name: "n1", URL: "b"}, {Name: "n2", URL: "c"}}, 0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, r := range flat {
		ring.Owner(r.Tenant)
	}
	m["cluster.ring.owner_ns"] = perRecord(time.Since(t0), len(flat))
	return nil
}

// timeRecovery opens a node's data directory as a ledger, as api.New
// does, and reports how long recovery took and what it replayed.
func timeRecovery(w *workloadSpec, dir string) (time.Duration, uint64, error) {
	fsync, err := ledger.ParseFsyncMode(w.fsync)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	led, err := ledger.New(ledger.Config{MaxTenants: w.maxTenants, Shards: api.DefaultShards, Dir: dir, Fsync: fsync})
	if err != nil {
		return 0, 0, err
	}
	d := time.Since(t0)
	n := led.Durability().Recovery.RecordsReplayed
	return d, n, led.Close()
}

package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/api"
	"repro/internal/core"
)

// relTol is how far a float total may drift from the oracle: concurrent
// senders change the order of the ledger's float sums, never the terms.
const relTol = 1e-9

// tally is one tenant's expected or observed bill.
type tally struct {
	n         int64
	com, bill float64
}

// oracle prices every generated record with core's pricers built from the
// run's own tables and sums what each tenant must be billed.
type oracle struct {
	commercial core.Pricer
	litmus     core.Pricer
	want       map[string]*tally
}

func newOracle(models *core.Models) *oracle {
	return &oracle{
		commercial: core.Commercial{RateBase: 1},
		litmus:     core.Litmus{Models: models, RateBase: 1},
		want:       map[string]*tally{},
	}
}

// add bills one record and returns its commercial and litmus prices.
func (o *oracle) add(rec *api.UsageRecord) (float64, float64, error) {
	c, err := o.commercial.Quote(rec.Usage)
	if err != nil {
		return 0, 0, err
	}
	q, err := o.litmus.Quote(rec.Usage)
	if err != nil {
		return 0, 0, err
	}
	t := o.want[rec.Tenant]
	if t == nil {
		t = &tally{}
		o.want[rec.Tenant] = t
	}
	t.n++
	t.com += c.Commercial
	t.bill += q.Price
	return c.Commercial, q.Price, nil
}

// accounting is the records-level outcome of every usage request sent.
type accounting struct {
	sent, accepted, duplicates, rejected, dropped, throttled int64
}

func (a *accounting) fold(r *api.UsageStreamResponse) {
	a.accepted += int64(r.Accepted)
	a.duplicates += int64(r.Duplicates)
	a.rejected += int64(r.Rejected)
	a.dropped += int64(r.Dropped)
	a.throttled += int64(r.Throttled)
}

// checkAccounting is the exactness identity: every record sent is
// accounted exactly once, and none is rejected or dropped.
func checkAccounting(a accounting) []string {
	var bad []string
	if got := a.accepted + a.duplicates + a.rejected + a.dropped + a.throttled; got != a.sent {
		bad = append(bad, fmt.Sprintf("accepted %d + duplicates %d + rejected %d + dropped %d + throttled %d = %d, sent %d",
			a.accepted, a.duplicates, a.rejected, a.dropped, a.throttled, got, a.sent))
	}
	if a.rejected != 0 || a.dropped != 0 {
		bad = append(bad, fmt.Sprintf("%d records rejected, %d dropped", a.rejected, a.dropped))
	}
	return bad
}

func close9(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1e-300)
}

// checkLedger compares the ledger's tenant listing with the oracle: the
// same tenant set, exact record counts, and commercial and litmus totals
// per tenant and overall within relTol.
func checkLedger(want map[string]*tally, got []api.TenantSummary) []string {
	var bad []string
	note := func(format string, args ...any) {
		if len(bad) < 10 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	seen := make(map[string]bool, len(got))
	var gotSum, wantSum tally
	for _, s := range got {
		if seen[s.Tenant] {
			note("tenant %s listed twice", s.Tenant)
		}
		seen[s.Tenant] = true
		gotSum.n += s.Invocations
		gotSum.com += s.Commercial
		gotSum.bill += s.Billed
		w := want[s.Tenant]
		switch {
		case w == nil:
			note("tenant %s billed but never sent", s.Tenant)
		case s.Invocations != w.n:
			note("tenant %s: %d records billed, %d sent", s.Tenant, s.Invocations, w.n)
		case !close9(s.Commercial, w.com) || !close9(s.Billed, w.bill):
			note("tenant %s: commercial %.17g billed %.17g, oracle %.17g / %.17g",
				s.Tenant, s.Commercial, s.Billed, w.com, w.bill)
		}
	}
	var missing []string
	for name, w := range want {
		wantSum.n += w.n
		wantSum.com += w.com
		wantSum.bill += w.bill
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		note("%d tenants missing from the listing, first %s", len(missing), missing[0])
	}
	if gotSum.n != wantSum.n || !close9(gotSum.com, wantSum.com) || !close9(gotSum.bill, wantSum.bill) {
		note("totals: %d records, commercial %.17g, billed %.17g; oracle %d, %.17g, %.17g",
			gotSum.n, gotSum.com, gotSum.bill, wantSum.n, wantSum.com, wantSum.bill)
	}
	return bad
}

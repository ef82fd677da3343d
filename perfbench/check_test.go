package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

// billed builds an oracle over a few generated records and the listing a
// correct ledger would return for them.
func billed(t *testing.T) (*oracle, []api.TenantSummary) {
	t.Helper()
	cal := testCalibration(t)
	models, err := core.FitModels(cal)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(workloadByName("bill-reads"), 5, cal)
	o := newOracle(models)
	for tenant := range 50 {
		for _, rec := range g.preload(tenant) {
			if _, _, err := o.add(&rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	var listing []api.TenantSummary
	for name, w := range o.want {
		listing = append(listing, api.TenantSummary{Tenant: name, Invocations: w.n, Commercial: w.com, Billed: w.bill})
	}
	return o, listing
}

func TestCheckLedgerPassesExactBills(t *testing.T) {
	o, listing := billed(t)
	if bad := checkLedger(o.want, listing); len(bad) > 0 {
		t.Fatal(bad)
	}
	// Float sums in another order stay within the tolerance.
	listing[0].Billed *= 1 + 1e-12
	if bad := checkLedger(o.want, listing); len(bad) > 0 {
		t.Fatal(bad)
	}
}

func TestCheckLedgerCatchesCorruption(t *testing.T) {
	corrupt := map[string]func([]api.TenantSummary) []api.TenantSummary{
		"litmus total": func(l []api.TenantSummary) []api.TenantSummary { l[3].Billed *= 1 + 1e-6; return l },
		"commercial total": func(l []api.TenantSummary) []api.TenantSummary {
			l[0].Commercial -= 1e-3
			return l
		},
		"record count": func(l []api.TenantSummary) []api.TenantSummary { l[1].Invocations++; return l },
		"missing":      func(l []api.TenantSummary) []api.TenantSummary { return l[1:] },
		"extra tenant": func(l []api.TenantSummary) []api.TenantSummary { return append(l, api.TenantSummary{Tenant: "ghost"}) },
		"listed twice": func(l []api.TenantSummary) []api.TenantSummary { return append(l, l[2]) },
	}
	for name, f := range corrupt {
		t.Run(name, func(t *testing.T) {
			o, listing := billed(t)
			if bad := checkLedger(o.want, f(listing)); len(bad) == 0 {
				t.Fatal("corrupted listing passed the gate")
			}
		})
	}
}

func TestCheckAccounting(t *testing.T) {
	ok := accounting{sent: 100, accepted: 90, duplicates: 4, throttled: 6}
	if bad := checkAccounting(ok); len(bad) > 0 {
		t.Fatal(bad)
	}
	for name, a := range map[string]accounting{
		"lost record": {sent: 100, accepted: 99},
		"rejected":    {sent: 100, accepted: 99, rejected: 1},
		"dropped":     {sent: 100, accepted: 99, dropped: 1},
	} {
		if bad := checkAccounting(a); len(bad) == 0 {
			t.Errorf("%s: passed the gate", name)
		}
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this command reports.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s listed, %s defined", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d listed, %d reported", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: %s %s listed, %s %s reported", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}

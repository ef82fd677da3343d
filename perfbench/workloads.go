package main

import (
	"time"

	"repro/internal/api"
)

// workloadSpec fixes everything a workload sends and the system it runs
// against. The parameters are stamped into every result; why each
// workload exists is in README.md and BENCHMARK.json.
type workloadSpec struct {
	name string

	// Inputs.
	wire      api.WireFormat
	batch     int               // records per usage request
	tenants   int               // fixed population (0: churned names)
	templates int               // pre-encoded frame batches (meter-frames)
	churn     int               // new tenant IDs per request (sdk-router-durable)
	window    int               // live tenant ID window under churn
	mix       [numKinds]float64 // request-kind weights; zero means usage only
	preload   bool              // bill-reads: recover a pre-written ledger

	// System under test.
	nodes      int
	router     bool
	durable    bool
	fsync      string
	maxTenants int     // per-node ledger cap, far above what a run reaches
	admission  float64 // per-tenant records/s ceiling; 0 disables admission
	budget     float64 // admission price-aware budget

	// Load. The ladder is the fixed grid nominal·step^k, k = 0..rungs-1.
	nominal float64 // offered requests/s at the nominal rung
	step    float64
	rungs   int
	rungDur time.Duration // length of one ladder rung
	limitMs float64       // p99 latency and lateness limit a rung must meet
	setups  int           // set-up repetitions; setup_s is their median
}

var workloads = []*workloadSpec{
	{
		name: "meter-frames",
		wire: api.WireFrames, batch: 256, tenants: 100_000, templates: 512,
		nodes: 1, maxTenants: 1 << 18,
		nominal: 220, step: 1.05, rungs: 60, rungDur: 1200 * time.Millisecond,
		limitMs: 100, setups: 99,
	},
	{
		name: "sdk-router-durable",
		wire: api.WireNDJSON, batch: 16, churn: 32, window: 2048,
		nodes: 3, router: true, durable: true, fsync: "always", maxTenants: 1 << 18,
		admission: 1e6, budget: 1e15,
		nominal: 150, step: 1.05, rungs: 60, rungDur: 1200 * time.Millisecond,
		limitMs: 100, setups: 42,
	},
	{
		name: "bill-reads",
		wire: api.WireNDJSON, batch: 8, tenants: 200_000, preload: true,
		mix:   [numKinds]float64{kindUsage: 0.25, kindStatement: 0.45, kindPage: 0.15, kindQuote: 0.15},
		nodes: 1, durable: true, fsync: "always", maxTenants: 1 << 19,
		nominal: 400, step: 1.05, rungs: 60, rungDur: 1200 * time.Millisecond,
		limitMs: 100, setups: 3,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

package main

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

func testCalibration(t *testing.T) *core.Calibration {
	t.Helper()
	cal, err := calibrate(1)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// fingerprint renders the first n requests and a rung schedule of one
// generator into bytes.
func fingerprint(g *generator, n int) ([]byte, []time.Duration) {
	var out []byte
	for i := range int64(n) {
		r := g.request(i, nil)
		out = append(out, r.method...)
		out = append(out, r.path...)
		out = append(out, r.ctype...)
		out = append(out, r.body...)
	}
	return out, g.schedule(3, 500, time.Second)
}

func TestGeneratorIsPureFunctionOfSeed(t *testing.T) {
	cal := testCalibration(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, sa := fingerprint(newGenerator(w, 7, cal), 40)
			b, sb := fingerprint(newGenerator(w, 7, cal), 40)
			if !bytes.Equal(a, b) || !slices.Equal(sa, sb) {
				t.Fatal("same seed produced different bodies or schedules")
			}
			c, sc := fingerprint(newGenerator(w, 8, cal), 40)
			if bytes.Equal(a, c) || slices.Equal(sa, sc) {
				t.Fatal("different seeds produced identical bodies or schedules")
			}
		})
	}
}

// The oracle prices exactly what request i carried on the wire.
func TestRecordsMatchRequestBodies(t *testing.T) {
	cal := testCalibration(t)
	for _, w := range workloads {
		g := newGenerator(w, 3, cal)
		for i := range int64(20) {
			req, recs := g.request(i, nil), g.records(i)
			if (req.kind == kindUsage) != (recs != nil) {
				t.Fatalf("%s request %d: kind %s but %d records", w.name, i, kindNames[req.kind], len(recs))
			}
			for j, rec := range recs {
				if !bytes.Contains(req.body, []byte(rec.Key)) || !bytes.Contains(req.body, []byte(rec.Tenant)) {
					t.Fatalf("%s request %d record %d (%s/%s) not in body", w.name, i, j, rec.Tenant, rec.Key)
				}
			}
		}
	}
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ledger"
)

// system is the system under test: api.Server nodes (and a cluster.Router
// in front of them when the workload routes) behind loopback listeners.
type system struct {
	nodes  []*api.Server
	https  []*http.Server
	urls   []string // node URLs
	front  string   // URL the generator sends to
	client *http.Client
}

// startSystem builds the workload's system from encoded tables and waits
// for the first 200 from the front's /healthz. dirs holds one data
// directory per node ("" for in-memory). A non-nil tracer wraps every
// mounted handler in spans.
func startSystem(w *workloadSpec, tables []byte, dirs []string, tr *tracer) (*system, error) {
	s := &system{client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}}
	var nodes []cluster.Node
	for k := 0; k < w.nodes; k++ {
		cal, err := core.DecodeCalibration(tables)
		if err != nil {
			return s, err
		}
		srv, err := api.New(api.Config{
			Calibration:     cal,
			MaxTenants:      w.maxTenants,
			DataDir:         dirs[k],
			Fsync:           w.fsync,
			AdmissionRate:   w.admission,
			AdmissionBudget: w.budget,
		})
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, srv)
		u, err := s.listen(tr.wrap("api.server", srv))
		if err != nil {
			return s, err
		}
		s.urls = append(s.urls, u)
		nodes = append(nodes, cluster.Node{Name: "n" + strconv.Itoa(k), URL: u})
	}
	s.front = s.urls[0]
	if w.router {
		cc, err := cluster.NewClient(nodes, 0)
		if err != nil {
			return s, err
		}
		u, err := s.listen(tr.wrap("cluster.router", cluster.NewRouter(cc, cluster.RouterConfig{})))
		if err != nil {
			return s, err
		}
		s.front = u
	}
	return s, s.waitHealthy()
}

func (s *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}

func (s *system) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.front + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("front %s not healthy: %v", s.front, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the listeners and then the nodes (flushing their ledgers).
func (s *system) close() error {
	var errs []error
	for _, hs := range s.https {
		errs = append(errs, hs.Close())
	}
	for _, n := range s.nodes {
		errs = append(errs, n.Close())
	}
	s.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// health fetches every node's /healthz.
func (s *system) health(ctx context.Context) ([]api.HealthResponse, error) {
	out := make([]api.HealthResponse, len(s.urls))
	for k, u := range s.urls {
		if err := s.getJSON(ctx, u+"/healthz", &out[k]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *system) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// walkTenants reads the whole /v3/tenants listing through the front.
func (s *system) walkTenants(ctx context.Context) ([]api.TenantSummary, error) {
	var all []api.TenantSummary
	cursor := ""
	for {
		var page api.TenantPage
		u := s.front + "/v3/tenants?limit=" + strconv.Itoa(api.MaxTenantPageLimit)
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		if err := s.getJSON(ctx, u, &page); err != nil {
			return nil, err
		}
		all = append(all, page.Tenants...)
		if page.NextCursor == "" {
			return all, nil
		}
		cursor = page.NextCursor
	}
}

// setUps builds and times the workload's systems. The first batch runs
// before the load on the live node data directories and keeps its last
// system as the one measured. The rest run on a spare set, spread over
// the run's idle points (after the nominal rung and after each ladder
// rung, with what is left made after the ladder), so the median follows
// the host over the whole run rather than one moment of it. Reopening a
// data directory leaves it unchanged, so every set-up of a run opens the
// same state.
type setUps struct {
	w      *workloadSpec
	tables []byte
	tr     *tracer
	live   []string // node data directories of the measured system
	spare  []string // the same state again, for the later set-ups
	first  int      // set-ups before the load
	left   int      // later set-ups not made yet
	per    int      // later set-ups per idle point
	times  []time.Duration
}

// idlePoints is how many idle points the later set-ups are spread over
// when the ladder visits that many rungs.
const idlePoints = 10

// newSetUps prepares both sets of node data directories, outside
// setup_s. bill-reads' spare set is a copy of the preloaded ledger.
// Otherwise a durable node's directory is made by one untimed set-up and
// close, so setup_s times a node opening an existing data directory, a
// restart, and not the kernel creating its files: on a shared host that
// cost varied twentyfold between runs and swamped the program's own.
func newSetUps(w *workloadSpec, tables []byte, tr *tracer, work, preload string) (*setUps, error) {
	u := &setUps{w: w, tables: tables, tr: tr, first: max(1, w.setups/3)}
	u.left = w.setups - u.first
	u.per = (u.left + idlePoints - 1) / idlePoints
	if w.preload {
		d, err := os.MkdirTemp(work, "preload")
		if err != nil {
			return nil, err
		}
		if err := copyDir(preload, d); err != nil {
			return nil, fmt.Errorf("copying the preloaded ledger: %w", err)
		}
		u.live, u.spare = []string{preload}, []string{d}
		return u, nil
	}
	var err error
	if u.live, err = nodeDirs(w, work); err != nil {
		return nil, err
	}
	if u.spare, err = nodeDirs(w, work); err != nil {
		return nil, err
	}
	if !w.durable {
		return u, nil
	}
	for _, dirs := range [][]string{u.live, u.spare} {
		s, err := startSystem(w, tables, dirs, nil)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("preparing data directories: %w", err), s.close())
		}
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// run makes n timed set-ups; with keep, on the live directories, the last
// system stays up and is returned, else each is closed.
func (u *setUps) run(n int, keep bool) (*system, error) {
	dirs := u.spare
	if keep {
		dirs = u.live
	}
	for k := 0; k < n; k++ {
		t := time.Now()
		s, err := startSystem(u.w, u.tables, dirs, u.tr)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("set-up: %w", err), s.close())
		}
		u.times = append(u.times, time.Since(t))
		if keep && k == n-1 {
			return s, nil
		}
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// idle makes the next share of the later set-ups and collects their
// garbage, so the load that follows does not pay for it.
func (u *setUps) idle() error {
	n := min(u.per, u.left)
	u.left -= n
	if _, err := u.run(n, false); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

// nodeDirs makes one fresh data directory per node under base ("" each
// for an in-memory workload).
func nodeDirs(w *workloadSpec, base string) ([]string, error) {
	dirs := make([]string, w.nodes)
	if !w.durable {
		return dirs, nil
	}
	for k := range dirs {
		d, err := os.MkdirTemp(base, "node")
		if err != nil {
			return nil, err
		}
		dirs[k] = d
	}
	return dirs, nil
}

// writePreload writes bill-reads' pre-run ledger into dir exactly as a
// node would have: same shard count, window and pricer, priced by the
// oracle's pricers. It is input generation, outside setup_s. The one
// snapshot is taken at a fixed tenant rather than by the background
// snapshotter, so the files, and what recovery replays from the WAL tail
// past the snapshot, depend on the seed alone.
func writePreload(g *generator, o *oracle, dir string) error {
	led, err := ledger.New(ledger.Config{
		MaxTenants:    g.w.maxTenants,
		Shards:        api.DefaultShards,
		Dir:           dir,
		Fsync:         ledger.FsyncNever,
		SnapshotEvery: -1,
	})
	if err != nil {
		return err
	}
	var entries []ledger.Entry
	results := make([]ledger.AccrualResult, 0, 4096)
	flush := func() error {
		results = results[:len(entries)]
		led.AccrueBatch(entries, results)
		for _, r := range results {
			if r.Err != nil || r.Outcome != ledger.Accrued {
				return fmt.Errorf("preload accrual: %v %v", r.Outcome, r.Err)
			}
		}
		entries = entries[:0]
		return nil
	}
	for t := range g.names {
		for _, rec := range g.preload(t) {
			com, price, err := o.add(&rec)
			if err != nil {
				return err
			}
			entries = append(entries, ledger.Entry{Tenant: rec.Tenant, Pricer: api.DefaultPricer,
				Minute: rec.Minute, Commercial: com, Price: price, Key: rec.Key})
		}
		if len(entries) >= 4000 {
			if err := flush(); err != nil {
				return err
			}
		}
		if t == len(g.names)*3/4 {
			if err := flush(); err != nil {
				return err
			}
			if err := led.Snapshot(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return led.Close()
}

// copyDir copies the regular files of the flat directory src into dst and
// syncs them, so a later set-up's fsyncs do not wait on the copy.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("%s: not a regular file", filepath.Join(src, e.Name()))
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// removeAll deletes a scratch directory; a leftover one is harmless and
// lives under the gitignored output directory.
func removeAll(dir string) { _ = os.RemoveAll(dir) }

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sesa"
	"sesa/internal/report"
	"sesa/internal/serve"
)

// parN is the trace length of the parallel sweeps, in instructions per core.
const parN = 10000

// serveWorkers is the service's simulation worker count: the host's CPUs.
const serveWorkers = 2

// pollEvery is the closed-loop client's status polling interval.
const pollEvery = 2 * time.Millisecond

// client talks to an in-process sweep service over loopback HTTP.
type client struct {
	base string
	hc   *http.Client
}

// do sends a request and returns the body, failing on any status but want.
func (c *client) do(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode == want {
		return b, nil
	}
	return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
}

// service is one in-process sesa-serve instance on a loopback listener.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	c    *client
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: serve.New(serve.Options{MaxWorkers: serveWorkers}), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.c = &client{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: &http.Transport{}}}
	return s, nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (s *service) stop() error {
	s.c.hc.CloseIdleConnections()
	err := s.hs.Shutdown(context.Background())
	s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// sweepRequest is the POST /v1/sweeps body for one profile on every model.
func (f *fig10) sweepRequest(p sesa.Profile) []byte {
	req := serve.SweepRequest{Title: "fig10 " + p.Name}
	for _, m := range f.models {
		req.Jobs = append(req.Jobs, serve.JobSpec{Profile: p.Name, Model: m.String(),
			InstPerCore: f.n, Seed: f.seed})
	}
	b, _ := json.Marshal(req) // plain structs: cannot fail
	return b
}

// sweepTimeout bounds one fresh sweep's submit -> done time; a sweep that
// takes longer counts as failed.
const sweepTimeout = 60 * time.Second

// sweepRun is one fresh sweep's client-side record.
type sweepRun struct {
	ok      bool // submitted, done and its table fetched
	id      string
	start   time.Time
	submit  time.Duration // POST round trip
	done    time.Duration // submit -> observed done
	results time.Duration // GET results round trip
	table   []byte        // ?view=table document
	cached  time.Duration // the following resubmission's POST -> results
}

// serveRound submits every profile's sweep in order, closed loop, and after
// each resubmits an earlier one (chosen by rng) that the result cache
// answers. Each sweep's root span is a bench.sweep; its children are the
// client's HTTP calls. A submission that errors, or whose table fails its
// check, counts as a failed operation and the round goes on.
func (f *fig10) serveRound(r *run, c *client, rng *splitmix) []sweepRun {
	runs := make([]sweepRun, len(f.profiles))
	for i, p := range f.profiles {
		sr := &runs[i]
		err := f.freshSweep(r, c, i, p, sr)
		if err == nil {
			sr.ok = true
			err = f.checkTable(i, sr.table)
		}
		if err != nil {
			r.check(err)
			r.failed++
		}
		k := rng.intn(i + 1)
		if err := f.cachedSweep(r, c, i, k, runs); err != nil {
			r.check(err)
			r.failed++
		}
	}
	return runs
}

// freshSweep submits profile i's sweep, polls it to done and fetches its
// table.
func (f *fig10) freshSweep(r *run, c *client, i int, p sesa.Profile, sr *sweepRun) error {
	g := fmt.Sprintf("sweep-%d", i)
	root := r.tr.begin(0, "bench.sweep", g)
	defer r.tr.end(root)
	sr.start = time.Now()
	s := r.tr.begin(root, "serve.submit", g)
	b, err := c.do("POST", "/v1/sweeps", f.sweepRequest(p), http.StatusAccepted)
	sr.submit = time.Since(sr.start)
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("serve: sweep %d: %w", i, err)
	}
	var st serve.SweepStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("serve: sweep %d: %w", i, err)
	}
	sr.id = st.ID
	s = r.tr.begin(root, "serve.wait", g)
	for st.State != "done" {
		if st.State == "canceled" || time.Since(sr.start) > sweepTimeout {
			r.tr.end(s)
			return fmt.Errorf("serve: sweep %d (%s): %s after %v", i, st.ID, st.State, time.Since(sr.start))
		}
		time.Sleep(pollEvery)
		if b, err = c.do("GET", "/v1/sweeps/"+st.ID, nil, http.StatusOK); err == nil {
			err = json.Unmarshal(b, &st)
		}
		if err != nil {
			r.tr.end(s)
			return fmt.Errorf("serve: sweep %d: %w", i, err)
		}
	}
	sr.done = time.Since(sr.start)
	r.tr.end(s)
	t0 := time.Now()
	s = r.tr.begin(root, "serve.results", g)
	sr.table, err = c.do("GET", "/v1/sweeps/"+st.ID+"/results?view=table", nil, http.StatusOK)
	r.tr.end(s)
	sr.results = time.Since(t0)
	if err != nil {
		return fmt.Errorf("serve: sweep %d: %w", i, err)
	}
	return nil
}

// cachedSweep resubmits fresh sweep k after fresh sweep i; the result cache
// must answer it at POST time with a table byte-identical to the fresh one.
func (f *fig10) cachedSweep(r *run, c *client, i, k int, runs []sweepRun) error {
	if !runs[k].ok {
		return fmt.Errorf("cache: resubmitted sweep %d: not resubmitted, its fresh sweep failed", k)
	}
	g := fmt.Sprintf("cached-%d", i)
	root := r.tr.begin(0, "bench.cached_sweep", g)
	defer r.tr.end(root)
	t0 := time.Now()
	s := r.tr.begin(root, "serve.submit", g)
	b, err := c.do("POST", "/v1/sweeps", f.sweepRequest(f.profiles[k]), http.StatusOK)
	r.tr.end(s)
	if err != nil {
		return fmt.Errorf("cache: resubmitted sweep %d: %w", k, err)
	}
	var cst serve.SweepStatus
	if err := json.Unmarshal(b, &cst); err != nil {
		return fmt.Errorf("cache: resubmitted sweep %d: %w", k, err)
	}
	s = r.tr.begin(root, "serve.results", g)
	cached, err := c.do("GET", "/v1/sweeps/"+cst.ID+"/results?view=table", nil, http.StatusOK)
	r.tr.end(s)
	runs[i].cached = time.Since(t0)
	if err != nil {
		return fmt.Errorf("cache: resubmitted sweep %d: %w", k, err)
	}
	if cst.State != "done" || cst.CacheHits != len(f.models) {
		return fmt.Errorf("cache: resubmitted sweep %d: state %s with %d cache hits, want done with %d",
			k, cst.State, cst.CacheHits, len(f.models))
	}
	return checkSameBytes(fmt.Sprintf("cache: resubmitted sweep %d", k), runs[k].table, cached)
}

// checkTable checks profile i's served table against its trace counts.
func (f *fig10) checkTable(i int, table []byte) error {
	var t report.CharacterizationTable
	if err := json.Unmarshal(table, &t); err != nil {
		return fmt.Errorf("serve: sweep %d table: %w", i, err)
	}
	return checkRows(f.profiles[i].Name, len(f.models), f.want[i].insts, t.Rows)
}

// servedCycles returns the per-profile cycle rows of the served tables.
func servedCycles(runs []sweepRun) [][]uint64 {
	cycles := make([][]uint64, len(runs))
	for i, sr := range runs {
		var t report.CharacterizationTable
		if json.Unmarshal(sr.table, &t) != nil {
			continue // checkTable reported it
		}
		for _, row := range t.Rows {
			cycles[i] = append(cycles[i], row.Cycles)
		}
	}
	return cycles
}

// runParServe drives fig10-par-serve: each parallel profile's sweep (every
// machine, 8 cores) submitted to an in-process sweep service, closed loop,
// each followed by a cached resubmission. A round starts a fresh service
// so that its result cache starts empty.
func runParServe(r *run) error {
	f := newFig10(sesa.ParallelSuite, parN, r.seed)
	f.setup(r)

	var last []sweepRun
	oneRound := func(rng *splitmix) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			svc, err := startService()
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			runs := f.serveRound(r, svc.c, rng)
			wall := time.Since(t0)
			if r.tr != nil {
				err = f.jobSpans(r, svc.c, runs)
			}
			if serr := svc.stop(); err == nil {
				err = serr
			}
			if err != nil {
				return 0, err
			}
			r.attempted += 2 * len(runs)
			last = runs
			return wall, nil
		}
	}
	rounds, err := r.timedRounds(oneRound(newSplitmix(r.seed)))
	if err != nil {
		return err
	}
	f.recordE2E(r, rounds)
	f.recordGap(r, servedCycles(last))

	// The served rows of one sampled sweep against an in-process RunSweep
	// of the same jobs, and one of its jobs under the naive clock.
	check := newSplitmix(r.seed ^ 0x5eed)
	k := check.intn(len(f.profiles))
	res, _ := sesa.RunSweep(f.jobs(f.profiles[k:k+1]), serveWorkers)
	f.checkResults(r, k, res)
	doc := report.CharacterizationTable{Title: "fig10 " + f.profiles[k].Name}
	for _, x := range res {
		doc.Rows = append(doc.Rows, x.Char)
	}
	var buf bytes.Buffer
	r.check(doc.WriteJSON(&buf))
	r.check(checkSameBytes(fmt.Sprintf("serve: sweep %d vs in-process RunSweep", k), last[k].table, buf.Bytes()))
	f.checkStepModes(r, check, res, 1)

	if !r.traced {
		return nil
	}
	// The service's own path carries the serve and runner spans. The span
	// pass runs the same jobs once through the root API outside the service,
	// for their work counts and per-machine host cost.
	var d *direct
	err = r.tracedPhase(rounds, oneRound(newSplitmix(r.seed)), func() error {
		var err error
		d, err = f.runDirect(r, f.jobs(f.profiles), serveWorkers)
		return err
	})
	if err != nil {
		return err
	}
	var submit, results, cached []float64
	for _, sr := range last {
		if sr.ok {
			submit = append(submit, ms(sr.submit))
			results = append(results, ms(sr.results))
		}
		if sr.cached > 0 {
			cached = append(cached, ms(sr.cached))
		}
	}
	r.extra.add("serve.submit_ms_p50", median(submit), "ms")
	r.extra.add("serve.results_ms_p50", median(results), "ms")
	r.extra.add("serve.cached_sweep_ms_p50", median(cached), "ms")
	jobs := durationsMs(r.tr.durations("runner.job"))
	r.extra.add("runner.job_p50_ms", median(jobs), "ms")
	r.extra.add("runner.job_p90_ms", quantile(jobs, 0.9), "ms")
	r.extra.add("runner.idle_s", r.runnerIdle.Seconds()/float64(r.tracedRounds), "s")
	d.record(r, f.models)
	return recordMachineBuild(r)
}

// chromeEvent is the part of a Chrome trace event the benchmark reads from
// a sweep timeline.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Args struct {
		Index *int `json:"index"`
	} `json:"args"`
}

// jobSpans reads each fresh sweep's service timeline, whose job spans come
// from the runner pool's OnJobSpan hook, and adds them to the trace under
// the sweep's serve.wait span. The timeline's zero is the sweep's
// admission, anchored at the client's submit time. It also accumulates the
// runner's idle time: workers × execution window − Σ job time.
func (f *fig10) jobSpans(r *run, c *client, runs []sweepRun) error {
	for i, sr := range runs {
		if !sr.ok {
			continue
		}
		b, err := c.do("GET", "/v1/sweeps/"+sr.id+"/timeline", nil, http.StatusOK)
		if err != nil {
			return err
		}
		var doc struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("timeline %s: %w", sr.id, err)
		}
		g := fmt.Sprintf("sweep-%d", i)
		parent := r.tr.find("serve.wait", g)
		var exec, jobs time.Duration
		for _, e := range doc.TraceEvents {
			start := sr.start.Add(time.Duration(e.Ts) * time.Microsecond)
			dur := time.Duration(e.Dur) * time.Microsecond
			switch {
			case e.Ph == "X" && e.Args.Index != nil:
				r.tr.add(parent, "runner.job", g, start, start.Add(dur))
				jobs += dur
			case e.Ph == "X" && e.Name == "worker-execute":
				exec += dur
			}
		}
		r.runnerIdle += serveWorkers*exec - jobs
	}
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minvn/internal/mc"
	"minvn/internal/serve"
)

// The serve-mix workload: an in-process analysis server on loopback,
// driven in a closed loop by one client per CPU, each sending its next
// request only after the previous reply. Every pass starts a fresh
// server, so every pass begins with a cold result cache and sends the
// same seeded sequence.
var (
	// serveProtocols are the Table I Class 3 cells the verify requests
	// check, at the server's default paper configuration (3c/2d/2a,
	// minimal VNs, BFS, exact store).
	serveProtocols = []string{"CHI", "MSI_nonblocking_cache", "MESI_nonblocking_cache"}
	// analyzeProtocols are the protocols the analyze requests name.
	analyzeProtocols = []string{"CHI", "MSI_nonblocking_cache", "MESI_nonblocking_cache",
		"MOSI_blocking_cache", "MSI_blocking_cache", "MOESI_nonblocking_cache"}
)

const (
	// Verify bounds are serveBoundBase + k for k < serveLadder; each
	// (protocol, bound) pair is a distinct cache key with a recorded
	// verdict. The narrow range keeps every cold job about equally
	// expensive, so the seed moves which keys are asked, not the cost.
	serveBoundBase = 1500
	serveLadder    = 64
	// A pass is serveBlocks blocks of six cold verify requests, three
	// repeats of cold keys from earlier blocks (cache hits) and one
	// analyze request, shuffled within the block. The first block has
	// no earlier keys, so its repeats become analyze requests.
	serveBlocks         = 24
	serveColdPerBlock   = 6
	serveRepeatPerBlock = 3
)

// request is one API call of the mix.
type request struct {
	kind      string // "verify" or "analyze"
	protocol  string
	maxStates int // verify only
}

// key names the request's recorded verdict in expect.json.
func (r request) key() string {
	if r.kind == "analyze" {
		return r.protocol
	}
	return fmt.Sprintf("%s@%d", r.protocol, r.maxStates)
}

// serveMix is the serve-mix workload.
type serveMix struct {
	exp     *expectations
	reqs    []request
	clients int
	rows    map[string]*row // per verify protocol, for the traced replay
}

func newServeMix(exp *expectations, seed int64) *serveMix {
	return &serveMix{exp: exp, reqs: serveRequests(seed), clients: runtime.NumCPU()}
}

// serveRequests draws one pass's request sequence from the seed.
func serveRequests(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	perProto := serveBlocks * serveColdPerBlock / len(serveProtocols)
	var cold []request
	for _, p := range serveProtocols {
		for _, k := range rng.Perm(serveLadder)[:perProto] {
			cold = append(cold, request{"verify", p, serveBoundBase + k})
		}
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	analyze := func() request {
		return request{kind: "analyze", protocol: analyzeProtocols[rng.Intn(len(analyzeProtocols))]}
	}
	var reqs []request
	for b := 0; b < serveBlocks; b++ {
		earlier := b * serveColdPerBlock
		block := append([]request(nil), cold[earlier:earlier+serveColdPerBlock]...)
		for i := 0; i < serveRepeatPerBlock; i++ {
			if b == 0 {
				block = append(block, analyze())
			} else {
				block = append(block, cold[rng.Intn(earlier)])
			}
		}
		block = append(block, analyze())
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		reqs = append(reqs, block...)
	}
	return reqs
}

func (s *serveMix) setup() (setupTimes, error) {
	var total setupTimes
	start := time.Now()
	rows := make(map[string]*row, len(serveProtocols))
	for _, p := range serveProtocols {
		r, t, err := buildRow(serveRowSpec(p, 0))
		if err != nil {
			return total, err
		}
		total.add(t)
		rows[p] = r
	}
	s.rows = rows
	srv, err := startServer(s.clients)
	if err != nil {
		return total, err
	}
	if err := srv.stop(); err != nil {
		return total, err
	}
	total.total = time.Since(start).Seconds()
	return total, nil
}

// serveRowSpec is the search a verify request asks the server for.
func serveRowSpec(proto string, maxStates int) rowSpec {
	return rowSpec{
		Name: fmt.Sprintf("%s@%d", proto, maxStates), Protocol: proto,
		Caches: 3, Dirs: 2, Addrs: 2, Strategy: mc.BFS, MaxStates: maxStates,
		Engine: mc.EngineSeq, Store: mc.StoreExact,
	}
}

// reply is what a client saw for one request.
type reply struct {
	latency float64 // seconds
	code    int
	err     error
	view    serve.JobView
}

// serveSample is the server's own account of a pass (/v1/stats).
type serveSample struct {
	requests, cacheHits, singleflight, rejected, jobsDone int64
}

func (s *serveMix) pass(traced bool) (*passResult, error) {
	srv, err := startServer(s.clients)
	if err != nil {
		return nil, err
	}
	replies := make([]reply, len(s.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.reqs) {
					return
				}
				replies[i] = srv.do(s.reqs[i])
			}
		}()
	}
	wg.Wait()
	pr := &passResult{wall: time.Since(t0).Seconds()}

	stats, err := srv.stats()
	var metricsText string
	if err == nil && traced {
		metricsText, err = srv.get("/metrics")
	}
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	pr.serve = stats

	first := make(map[string][]byte)
	jobs := make(map[string]bool)
	for i, rep := range replies {
		req := s.reqs[i]
		errs, states := s.check(req, rep, first)
		run := -1.0
		// The first reply carrying a job that ran (not a cache hit)
		// accounts for that job's search.
		if errs == nil && req.kind == "verify" && !rep.view.Cached && !jobs[rep.view.ID] {
			jobs[rep.view.ID] = true
			pr.states += int64(states.States)
			run = states.DurationSeconds
		}
		pr.record(errs)
		pr.ops = append(pr.ops, op{id: i, latency: rep.latency, run: run})
	}
	// One fresh server per pass: every distinct key must have run
	// exactly one job, and every other request must have been served
	// from the cache or joined to that job.
	pr.record(s.checkAccounting(stats, metricsText, len(first)))
	return pr, nil
}

// verifyReply is the pinned part of a verify job's result document.
type verifyReply struct {
	Outcome         string  `json:"outcome"`
	States          int     `json:"states"`
	MaxDepth        int     `json:"max_depth"`
	DurationSeconds float64 `json:"duration_seconds"`
	Stats           struct {
		Expansions int64 `json:"expansions"`
	} `json:"stats"`
}

// check verifies one reply: a 200 with a done job, the recorded verdict,
// and bytes identical to the first reply for the same key.
func (s *serveMix) check(req request, rep reply, first map[string][]byte) ([]string, verifyReply) {
	var v verifyReply
	key := req.kind + "/" + req.key()
	switch {
	case rep.err != nil:
		return []string{fmt.Sprintf("%s: %v", key, rep.err)}, v
	case rep.code != http.StatusOK:
		return []string{fmt.Sprintf("%s: HTTP %d", key, rep.code)}, v
	case rep.view.Status != serve.StatusDone:
		return []string{fmt.Sprintf("%s: job %s: %s", key, rep.view.Status, rep.view.Error)}, v
	}
	var errs []string
	if ref, ok := first[key]; !ok {
		first[key] = rep.view.Result
	} else if !bytes.Equal(ref, rep.view.Result) {
		errs = append(errs, fmt.Sprintf("%s: reply differs from the first reply for the key", key))
	}
	if req.kind == "analyze" {
		var got analyzeVerdict
		want, ok := s.exp.ServeAnalyze[req.key()]
		if err := json.Unmarshal(rep.view.Result, &got); err != nil || !ok || got != want {
			errs = append(errs, fmt.Sprintf("%s: got %+v (%v), recorded %+v", key, got, err, want))
		}
		return errs, v
	}
	want, ok := s.exp.ServeVerify[req.key()]
	if err := json.Unmarshal(rep.view.Result, &v); err != nil {
		return append(errs, fmt.Sprintf("%s: %v", key, err)), v
	}
	got := verdict{v.Outcome, v.States, v.MaxDepth, v.Stats.Expansions}
	if !ok || got != want {
		errs = append(errs, fmt.Sprintf("%s: got %+v, recorded %+v", key, got, want))
	}
	if v.Outcome == mc.Deadlock.Tag() {
		errs = append(errs, fmt.Sprintf("%s: DEADLOCK contradicts Table I", key))
	}
	return errs, v
}

// checkAccounting compares the server's counters (and, on traced
// passes, its /metrics stage counts) with the mix that was sent.
func (s *serveMix) checkAccounting(st *serveSample, metricsText string, keys int) []string {
	var errs []string
	if st.requests != int64(len(s.reqs)) || st.jobsDone != int64(keys) {
		errs = append(errs, fmt.Sprintf("server counted %d requests and %d jobs for %d requests over %d keys",
			st.requests, st.jobsDone, len(s.reqs), keys))
	}
	if metricsText != "" {
		sc := bufio.NewScanner(strings.NewReader(metricsText))
		var staged int64
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) == 2 && strings.HasPrefix(f[0], "stage_job_") && strings.HasSuffix(f[0], "_seconds_count") {
				n, _ := strconv.ParseInt(f[1], 10, 64)
				staged += n
			}
		}
		if staged != int64(keys) {
			errs = append(errs, fmt.Sprintf("/metrics counts %d job runs for %d keys", staged, keys))
		}
	}
	return errs
}

// coldRequests lists the pass's distinct verify requests in order.
func (s *serveMix) coldRequests() []request {
	seen := make(map[request]bool)
	var out []request
	for _, r := range s.reqs {
		if r.kind == "verify" && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// replay reruns every distinct verify job of a pass through the timing
// decorators, outside the server and one at a time, the way the server
// runs it: sequential engine, occupancy observer attached. The server
// builds its own models, so this is how the machine and mc layers of
// serve-mix are measured.
func (s *serveMix) replay() (*layerSample, int, []string, error) {
	l := &layerSample{}
	failed := 0
	var failures []string
	for _, req := range s.coldRequests() {
		r := *s.rows[req.protocol]
		r.opts.MaxStates = req.maxStates
		tm, err := newTimedModel(r.model)
		if err != nil {
			return nil, 0, nil, err
		}
		to := &timedObserver{inner: r.sys.NewOccupancyProfiler()}
		res, wall := r.search(tm, to)
		l.addSearch(&r, res, wall, tm, to)
		want, ok := s.exp.ServeVerify[req.key()]
		if got := verdictOf(res); !ok || got != want || to.obs.calls.Load() != int64(res.States) {
			failed++
			failures = append(failures, fmt.Sprintf("replay %s: got %+v with %d observed states, recorded %+v",
				req.key(), got, to.obs.calls.Load(), want))
		}
	}
	return l, failed, failures, nil
}

// server is an in-process analysis server listening on loopback.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startServer(workers int) (*server, error) {
	srv := serve.New(serve.Config{Workers: workers, Logf: func(string, ...any) {}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: workers},
			Timeout:   time.Minute, // far above any job of the mix
		},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if _, err := s.get("/healthz"); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stop shuts the HTTP server down, waits for its goroutine and drains
// the worker pool.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return errors.Join(err, s.srv.Drain(ctx))
}

func (s *server) get(path string) (string, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return string(body), err
}

func (s *server) stats() (*serveSample, error) {
	body, err := s.get("/v1/stats")
	if err != nil {
		return nil, err
	}
	var st serve.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	c := st.Counters
	return &serveSample{c["serve.requests"], c["serve.cache_hits"], c["serve.singleflight_hits"],
		c["serve.rejected_busy"], c["serve.jobs_done"]}, nil
}

// do sends one request and waits for the job's terminal reply.
func (s *server) do(req request) reply {
	var body any
	path := "/v1/analyze?wait=1"
	if req.kind == "verify" {
		path = "/v1/verify?wait=1"
		body = serve.VerifyRequest{Protocol: req.protocol,
			Options: serve.VerifyOptions{MaxStates: req.maxStates, Workers: 1}}
	} else {
		body = serve.AnalyzeRequest{Protocol: req.protocol}
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return reply{err: err}
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return reply{latency: time.Since(t0).Seconds(), err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	rep := reply{latency: time.Since(t0).Seconds(), code: resp.StatusCode, err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		rep.err = json.Unmarshal(raw, &rep.view)
	}
	return rep
}

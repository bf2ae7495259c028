package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/pdb"
)

// serve-mixed sizing. The rate is fixed well below the capacity of the
// engine on 2 CPUs, so few requests overlap: at 8 requests/s overlaps set
// the tail, and a slower host makes more of them, so query_tail_ms moved
// by more than its bound between runs of the same code.
const (
	serveRate  = 3.0  // requests per second
	sloLimitMS = 1000 // latency limit of slo_miss_rate
	serveLead  = 20 * time.Millisecond
	// serveShare scales corpus-sample's per-scenario trial budgets to the
	// key window one fresh request covers; σ̂ requests, which restart with
	// doubled rounds, cover windows a quarter that size.
	serveShare = 0.2
)

// serveTuples is the serve-mixed corpus size, per scenario.
const serveTuples = 3_000

// requestKind names the serve-mixed request classes.
type requestKind int

const (
	kindWarm    requestKind = iota // an earlier program and seed: cache hits
	kindExact                      // exact confidences
	kindStrat                      // stratified, fully factored
	kindFresh                      // flat FPRAS, fresh seed, key-range-narrowed
	kindASelect                    // σ̂ over a narrowed input, fresh seed
)

var kindNames = []string{"warm", "exact", "strat", "fresh", "aselect"}

// kindWeights is the request mix, by kind.
var kindWeights = []float64{0.45, 0.20, 0.15, 0.15, 0.05}

// queryRequest is the body of POST /v1/query.
type queryRequest struct {
	Program string `json:"program"`
	Seed    int64  `json:"seed,omitempty"`
	Exact   bool   `json:"exact,omitempty"`
	Strata  int    `json:"strata,omitempty"`
}

// request is one scheduled request.
type request struct {
	at    time.Duration // offset of its due time from the loop start
	kind  requestKind
	scen  int    // the scenario whose references check the response
	label string // kind/scenario, for the per-kind latency report
	body  queryRequest
}

// program is a scenario's full query with the references its responses
// are checked against.
type program struct {
	src     string
	exactFP string             // hash of the exact result's NDJSON row lines
	exactP  map[string]float64 // exact confidence by row key
}

// serveEnv is a set-up service: the facade engine behind an in-process
// HTTP server on loopback.
type serveEnv struct {
	cfg      config
	corpus   *corpus
	db       *pdb.DB
	eng      *pdb.Engine
	hs       *http.Server
	done     chan struct{}
	url      string
	client   *http.Client
	openTime time.Duration

	programs []program      // per scenario
	windows  []keyWindows   // per scenario
	warm     []queryRequest // per scenario: the warmed (program, seed) pair
}

func (s *serveEnv) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.done
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

func setupServe(cfg config, name string) (*serveEnv, error) {
	dir, err := subdir(cfg, name)
	if err != nil {
		return nil, err
	}
	c, err := genCorpus(dir, cfg.rows(serveTuples), cfg.seed)
	if err != nil {
		return nil, err
	}
	s := &serveEnv{cfg: cfg, corpus: c, done: make(chan struct{})}
	start := time.Now()
	if s.db, err = pdb.Open(c.sources()); err != nil {
		return nil, err
	}
	s.openTime = time.Since(start)
	if s.eng, err = s.db.Engine(); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Engine:         s.eng,
		MaxInFlight:    cfg.nproc,
		AdmissionQueue: 1024,
		AdmissionWait:  time.Minute,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     cfg.nproc,
		MaxIdleConnsPerHost: cfg.nproc,
	}}
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	resp.Body.Close()
	return s, nil
}

// buildPrograms computes, per scenario, the references of its full
// query and the key windows its narrowed requests draw from.
func (s *serveEnv) buildPrograms(ctx context.Context) error {
	for _, sc := range s.corpus.scens {
		q, err := s.db.Prepare(sc.sc.Query)
		if err != nil {
			return err
		}
		res, err := q.EvalExact(ctx, pdb.WithWorkers(s.cfg.nproc))
		if err != nil {
			return err
		}
		p := program{src: sc.sc.Query, exactFP: rowLinesHash(res), exactP: make(map[string]float64)}
		for row := range res.Rows() {
			p.exactP[rowKeyJSON(res.Columns(), row.Value)] = row.Float("P")
		}
		s.programs = append(s.programs, p)
	}
	var err error
	s.windows, err = buildWindows(ctx, s.corpus, s.cfg.nproc)
	return err
}

// wireRow mirrors the server's NDJSON row encoding.
type wireRow struct {
	Row        map[string]any `json:"row"`
	ErrorBound float64        `json:"error_bound"`
	Singular   bool           `json:"singular,omitempty"`
	Condition  string         `json:"condition,omitempty"`
}

// rowLinesHash hashes a facade result encoded the way the server streams
// it, so a response's row lines can be compared byte for byte.
func rowLinesHash(res *pdb.Result) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	cols := res.Columns()
	for row := range res.Rows() {
		vals := make(map[string]any, len(cols))
		for _, c := range cols {
			vals[c] = row.Value(c)
		}
		_ = enc.Encode(wireRow{Row: vals, ErrorBound: row.ErrorBound(), Singular: row.Singular(), Condition: row.Condition()})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rowKeyJSON is the JSON encoding of a row's non-P columns, the key both
// facade rows and streamed rows are matched on.
func rowKeyJSON(cols []string, value func(string) any) string {
	m := make(map[string]any, len(cols))
	for _, c := range cols {
		if c != "P" {
			m[c] = value(c)
		}
	}
	b, _ := json.Marshal(m) // plain values always encode
	return string(b)
}

// schedule draws the open loop's requests: a Poisson process at
// serveRate conditioned on its count, so every run sends the same number
// of requests. The kinds come from a shuffled deck holding each kind's
// share of kindWeights exactly, and each kind cycles through the
// scenarios, so every run sends the same mix.
func (s *serveEnv) schedule(seed int64, window time.Duration, fresh *int64) []request {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(serveRate * window.Seconds()))
	ats := make([]float64, n)
	for i := range ats {
		ats[i] = rng.Float64() * window.Seconds()
	}
	sort.Float64s(ats)
	deck := make([]requestKind, 0, n)
	for k, w := range kindWeights {
		for c := int(math.Round(w * float64(n))); c > 0 && len(deck) < n; c-- {
			deck = append(deck, requestKind(k))
		}
	}
	for len(deck) < n {
		deck = append(deck, kindWarm)
	}
	rng.Shuffle(n, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	// σ̂ requests draw only from scenarios whose window filter runs before
	// repair-key; elsewhere every doubling restart would re-run repair-key
	// over the whole relation.
	var aselectScens []int
	for i, w := range s.windows {
		if keyIsRepairKey[w.scen] {
			aselectScens = append(aselectScens, i)
		}
	}
	next := make([]int, len(kindWeights))
	out := make([]request, n)
	for i, at := range ats {
		k := deck[i]
		scen := next[k] % len(s.programs)
		if k == kindASelect {
			scen = aselectScens[next[k]%len(aselectScens)]
		}
		next[k]++
		r := request{at: time.Duration(at * float64(time.Second)), kind: k, scen: scen,
			label: kindNames[k] + "/" + s.windows[scen].scen}
		switch k {
		case kindWarm:
			r.body = s.warm[scen]
		case kindExact:
			r.body = queryRequest{Program: s.programs[scen].src, Exact: true}
		case kindStrat:
			r.body = queryRequest{Program: s.programs[scen].src, Strata: exactStrata, Seed: 7}
		default:
			w := s.windows[scen]
			*fresh++
			r.body = queryRequest{Seed: seed*1_000_003 + *fresh}
			if k == kindASelect {
				_, r.body.Program = w.draw(rng, serveShare/4*s.cfg.trials(w.scen))
			} else {
				r.body.Program, _ = w.draw(rng, serveShare*s.cfg.trials(w.scen))
			}
		}
		out[i] = r
	}
	return out
}

// trailerStats is the part of the NDJSON trailer the benchmark reads.
type trailerStats struct {
	Rows          int   `json:"rows"`
	Restarts      int   `json:"restarts"`
	SampledTrials int64 `json:"sampled_trials"`
	ReusedTrials  int64 `json:"reused_trials"`
	CacheHits     int64 `json:"cache_hits"`
	ExactFactored int64 `json:"exact_factored"`
}

// response is what the client observed for one request.
type response struct {
	due, start, gotConn, firstByte, lastByte time.Time
	status                                   int
	header                                   []string
	rows                                     [][]byte
	stats                                    trailerStats
	bytes                                    int64
	err                                      error
}

func (r *response) latency() time.Duration { return r.lastByte.Sub(r.due) }

// do sends one request and reads the whole NDJSON stream.
func (s *serveEnv) do(ctx context.Context, body queryRequest, due time.Time) response {
	r := response{due: due, start: time.Now()}
	b, _ := json.Marshal(body) // plain values always encode
	trace := &httptrace.ClientTrace{
		GotConn:              func(httptrace.GotConnInfo) { r.gotConn = time.Now() },
		GotFirstResponseByte: func() { r.firstByte = time.Now() },
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost, s.url+"/v1/query", bytes.NewReader(b))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		r.err, r.lastByte = err, time.Now()
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	var lines [][]byte
	for {
		line, err := br.ReadBytes('\n')
		r.bytes += int64(len(line))
		if len(line) > 0 {
			lines = append(lines, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = err
			break
		}
	}
	r.lastByte = time.Now()
	if r.status != http.StatusOK || r.err != nil {
		return r
	}
	if len(lines) < 2 {
		r.err = errors.New("response has no header or trailer line")
		return r
	}
	var hdr struct {
		Columns []string `json:"columns"`
	}
	var trl struct {
		Stats trailerStats `json:"stats"`
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		r.err = fmt.Errorf("header line: %w", err)
		return r
	}
	if err := json.Unmarshal(lines[len(lines)-1], &trl); err != nil {
		r.err = fmt.Errorf("trailer line: %w", err)
		return r
	}
	r.header = hdr.Columns
	r.rows = lines[1 : len(lines)-1]
	r.stats = trl.Stats
	return r
}

// openLoop sends every request at its due time and waits for all of
// them. At most nproc connections are open, so requests due while all are
// busy wait in the client; their latency counts that wait.
func (s *serveEnv) openLoop(ctx context.Context, reqs []request) ([]response, time.Duration) {
	out := make([]response, len(reqs))
	start := time.Now().Add(serveLead)
	var wg sync.WaitGroup
	for i := range reqs {
		due := start.Add(reqs[i].at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = s.do(ctx, reqs[i].body, due)
		}(i)
	}
	wg.Wait()
	return out, time.Since(start)
}

// checkResponses checks every response and returns the bound tally.
func (s *serveEnv) checkResponses(c *collector, reqs []request, resps []response, bc *boundCheck) {
	for i, r := range resps {
		req := reqs[i]
		name := kindNames[req.kind]
		switch {
		case r.err != nil:
			c.fail(fmt.Sprintf("%s request: %v", name, r.err))
			continue
		case r.status != http.StatusOK:
			c.fail(fmt.Sprintf("%s request: status %d", name, r.status))
			continue
		case r.stats.Rows != len(r.rows):
			c.fail(fmt.Sprintf("%s request: trailer says %d rows, %d streamed", name, r.stats.Rows, len(r.rows)))
			continue
		}
		p := s.programs[req.scen]
		if req.body.Exact {
			h := sha256.New()
			for _, line := range r.rows {
				h.Write(line)
			}
			if hex.EncodeToString(h.Sum(nil)) != p.exactFP {
				c.fail(fmt.Sprintf("exact response for %q differs from the facade's rows", p.src))
			}
			continue
		}
		if req.kind == kindASelect {
			continue // σ̂ rows carry membership bounds, not estimates
		}
		for _, line := range r.rows {
			var row struct {
				Row map[string]any `json:"row"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.UseNumber()
			if err := dec.Decode(&row); err != nil {
				c.fail(fmt.Sprintf("row line: %v", err))
				break
			}
			pn, _ := row.Row["P"].(json.Number)
			pv, err := pn.Float64()
			if err != nil {
				c.fail(fmt.Sprintf("row without a P value: %s", strings.TrimSpace(string(line))))
				break
			}
			cols := make([]string, 0, len(row.Row))
			for k := range row.Row {
				cols = append(cols, k)
			}
			bc.rows++
			want, ok := p.exactP[rowKeyJSON(cols, func(k string) any { return row.Row[k] })]
			if !ok || math.Abs(pv-want) > defaultEps*want+1e-12 {
				bc.violations++
			}
		}
	}
}

// scrapeAdmission reads the admission-wait histogram's sum, in seconds,
// from /metrics.
func (s *serveEnv) scrapeAdmission() (float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == "pdb_admission_wait_seconds_sum" {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, sc.Err()
}

// serveLoopStats folds one open loop's responses into its loop stats.
func serveLoopStats(reqs []request, resps []response, ls *loopStats) {
	for i, r := range resps {
		ls.attempted++
		ls.lag = append(ls.lag, float64(r.start.Sub(r.due))/1e6)
		if r.err != nil || r.status != http.StatusOK {
			ls.failed++
			continue
		}
		ls.completed++
		ms := float64(r.latency()) / 1e6
		ls.lat = append(ls.lat, ms)
		ls.byKind[reqs[i].label] = append(ls.byKind[reqs[i].label], ms)
		ls.addStats(pdb.Stats{
			SampledTrials: r.stats.SampledTrials, ReusedTrials: r.stats.ReusedTrials,
			CacheHits: r.stats.CacheHits, Restarts: r.stats.Restarts, ExactFactored: r.stats.ExactFactored,
		}, len(r.rows), false)
	}
}

// serveMetrics records the end-to-end and server-layer metrics of one
// open loop.
func serveMetrics(c *collector, resps []response, ls *loopStats, admWait float64) {
	var ttfb, stream []float64
	var bytes, rows, rejected, misses int64
	for _, r := range resps {
		if r.err != nil || r.status != http.StatusOK {
			misses++
			if r.status == http.StatusTooManyRequests {
				rejected++
			}
			continue
		}
		if float64(r.latency())/1e6 > sloLimitMS {
			misses++
		}
		ttfb = append(ttfb, float64(r.firstByte.Sub(r.gotConn))/1e6)
		stream = append(stream, float64(r.lastByte.Sub(r.firstByte))/1e6)
		bytes += r.bytes
		rows += int64(len(r.rows))
	}
	n := float64(len(resps))
	c.set("slo_miss_rate", ratio(float64(misses), n), len(resps))
	c.set("server.ttfb_ms", median(ttfb), len(ttfb))
	c.set("server.stream_ms", median(stream), len(stream))
	c.set("server.bytes_per_row", ratio(float64(bytes), float64(rows)), int(rows))
	c.set("server.admission_wait_ms", ratio(admWait*1e3, n), len(resps))
	c.set("server.reject_rate", ratio(float64(rejected), n), len(resps))
	// loopMetrics takes the open loop's generator lag, due time → send.
	loopMetrics(c, ls)
}

// runServeMixed drives POST /v1/query on an in-process server with an
// open-loop request mix.
func runServeMixed(cfg config, c *collector) error {
	env, err := timedSetup(c, func(i int) (*serveEnv, *corpus, time.Duration, error) {
		s, err := setupServe(cfg, fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, nil, 0, err
		}
		return s, s.corpus, s.openTime, nil
	}, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	ctx := context.Background()
	if err := env.buildPrograms(ctx); err != nil {
		return err
	}
	// Warm the cache: each scenario's full query once at a fixed seed.
	for i, p := range env.programs {
		body := queryRequest{Program: p.src, Seed: 1000 + int64(i)}
		env.warm = append(env.warm, body)
		if r := env.do(ctx, body, time.Now()); r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm-up request: status %d: %v", r.status, r.err)
		}
	}
	window := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		window /= 2
	}
	var fresh int64
	var bc boundCheck
	// runPhase sends one schedule and checks every response; only the
	// untraced phase records the loop's metrics.
	runPhase := func(seed int64, record bool) ([]request, []response, *loopStats, error) {
		reqs := env.schedule(seed, window, &fresh)
		w0, err := env.scrapeAdmission()
		if err != nil {
			return nil, nil, nil, err
		}
		ls := &loopStats{byKind: make(map[string][]float64)}
		ls.begin(nil)
		resps, wall := env.openLoop(ctx, reqs)
		ls.end(nil, wall)
		w1, err := env.scrapeAdmission()
		if err != nil {
			return nil, nil, nil, err
		}
		env.checkResponses(c, reqs, resps, &bc)
		serveLoopStats(reqs, resps, ls)
		if record {
			serveMetrics(c, resps, ls, w1-w0)
		} else {
			c.attempted += ls.attempted
			c.failed += ls.failed
		}
		return reqs, resps, ls, nil
	}
	_, _, lsA, err := runPhase(cfg.seed, true)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := env.traced(ctx, c, runPhase, lsA); err != nil {
			return err
		}
	}
	checkBoundRate(c, bc)
	return nil
}

// traced runs a second open loop and replays each of its requests
// through the layers, in the order they were sent, on a replay engine
// whose cache was warmed the same way as the server's.
func (s *serveEnv) traced(ctx context.Context, c *collector,
	runPhase func(seed int64, record bool) ([]request, []response, *loopStats, error), lsA *loopStats) error {
	rp, err := newReplayer(s.corpus, s.cfg.nproc, nil)
	if err != nil {
		return err
	}
	defer rp.close()
	reng, err := s.db.Engine()
	if err != nil {
		return err
	}
	for _, w := range s.warm {
		q, err := reng.Prepare(w.Program)
		if err != nil {
			return err
		}
		if _, err := q.Eval(ctx, pdb.WithWorkers(s.cfg.nproc), pdb.WithSeed(w.Seed)); err != nil {
			return err
		}
		if err := rp.replay(ctx, tracedQuery{src: w.Program, opts: coreOptions(w.Seed, s.cfg.nproc, 0, 0, "")}); err != nil {
			return err
		}
	}
	rp.rec = &recorder{} // drop the warm-up spans
	rp.prepares, rp.clauses, rp.trials, rp.busy, rp.mallocs = 0, 0, 0, 0, 0

	reqs, resps, lsB, err := runPhase(s.cfg.seed+1, false)
	if err != nil {
		return err
	}
	for i, r := range resps {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		req := rp.nextReq.Add(1)
		root := rp.rec.add(0, req, "request", r.due, r.lastByte)
		rp.rec.add(root, req, "harness.queue", r.due, r.gotConn)
		srv := rp.rec.add(root, req, "server.http", r.gotConn, r.lastByte)
		body := reqs[i].body
		prep := rp.rec.start(srv, req, "prepare")
		q, err := reng.Prepare(body.Program)
		rp.rec.finish(prep)
		if err != nil {
			return err
		}
		opts := []pdb.Option{pdb.WithWorkers(s.cfg.nproc), pdb.WithSeed(body.Seed)}
		if body.Strata > 0 {
			opts = append(opts, pdb.WithStrata(body.Strata))
		}
		evalID := rp.rec.start(srv, req, "pdb.eval")
		res, err := eval(ctx, q, body.Exact, opts)
		rp.rec.finish(evalID)
		if err != nil {
			return err
		}
		err = rp.replay(ctx, tracedQuery{
			req: req, prepare: prep, eval: evalID, src: body.Program,
			opts:  coreOptions(body.Seed, s.cfg.nproc, body.Strata, 0, ""),
			exact: body.Exact, sampled: res.Stats().SampledTrials,
		})
		if err != nil {
			return err
		}
	}
	traceMetrics(c, rp, median(lsB.lat), median(lsA.lat))
	return nil
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/workload"
	"repro/pdb"
)

// Corpus sizes, in tuples per scenario. They are chosen so the scenario
// queries of one workload take about the same time: then the latency
// percentiles do not straddle the gap between two scenarios' latencies.
const (
	sampleTuples = 10_000 // corpus-sample and cluster-sample
	exactTuples  = 30_000 // corpus-exact
)

// sampleTrials is the Karp–Luby trial budget of one corpus-sample query,
// per scenario: each call draws a fresh key window worth this many
// trials, so a run samples the whole corpus many times over while every
// query costs about the same. Trials cost more on longer clauses, so the
// budgets differ by scenario; they make the three queries take about as
// long as each other on a 2-CPU x86-64 machine.
var sampleTrials = map[string]float64{"sensor-dedup": 380_000, "entity-resolution": 640_000, "repair-whatif": 1_600_000}

// rows sizes every corpus scenario at n tuples, times the run's scale.
func (c config) rows(n int64) map[string]int64 {
	out := make(map[string]int64)
	for _, sc := range workload.Scenarios() {
		out[sc.Name] = max(60, int64(float64(n)*c.scale))
	}
	return out
}

// trials returns scenario scen's window budget, times the run's scale.
func (c config) trials(scen string) float64 { return sampleTrials[scen] * c.scale }

const (
	// spillBudget is the memory limit of corpus-exact's spilled queries.
	spillBudget = 4 << 20
	// exactStrata is the stratum count of corpus-exact's stratified queries.
	exactStrata = 8
	// checkSeed is the fixed seed of cluster-sample's parity check.
	checkSeed = 424242
)

// job is one query of a closed-loop cycle.
type job struct {
	scen   int
	exact  bool
	strata int
	spill  bool
	fresh  bool  // a new seed on every call
	seed   int64 // the seed when !fresh
	window bool  // a fresh key window worth sampleTrials trials
}

// label names the job's kind in the report: scenario, mode, spill.
func (j job) label(e *engineEnv) string {
	l := e.corpus.scens[j.scen].sc.Name
	switch {
	case j.exact:
		l += "/exact"
	case j.strata > 0:
		l += "/strata"
	default:
		l += "/flat"
	}
	if j.spill {
		l += "/spill"
	}
	return l
}

// loopStats is what one measured loop observed.
type loopStats struct {
	lat, spillLat, lag []float64
	byKind             map[string][]float64
	errs               []string // failed operations
	completed          int64
	attempted, failed  int64
	wall               time.Duration
	mem0, mem1         runtime.MemStats
	cl0, cl1           *pdb.ClusterStats

	sampled, reused, hits, restarts, rows, factored int64
	spillBytes, spillFiles, spilled, tuplesOut      int64
}

func (ls *loopStats) begin(eng *pdb.Engine) {
	runtime.GC()
	runtime.ReadMemStats(&ls.mem0)
	if eng != nil {
		ls.cl0 = eng.ClusterStats()
	}
}

func (ls *loopStats) end(eng *pdb.Engine, wall time.Duration) {
	ls.wall = wall
	runtime.ReadMemStats(&ls.mem1)
	if eng != nil {
		ls.cl1 = eng.ClusterStats()
	}
}

// addStats folds one result's statistics into the loop's totals.
func (ls *loopStats) addStats(st pdb.Stats, rows int, spilled bool) {
	ls.sampled += st.SampledTrials
	ls.reused += st.ReusedTrials
	ls.hits += st.CacheHits
	ls.restarts += int64(st.Restarts)
	ls.rows += int64(rows)
	ls.factored += st.ExactFactored
	if spilled {
		ls.spilled++
		ls.spillBytes += st.SpilledBytes
		ls.spillFiles += int64(st.SpillFiles)
	}
	for _, op := range st.Ops {
		ls.tuplesOut += op.TuplesOut
	}
}

// options builds the facade options of one call.
func (e *engineEnv) options(j job, seed int64) []pdb.Option {
	opts := []pdb.Option{pdb.WithWorkers(e.cfg.nproc), pdb.WithSeed(seed)}
	if j.strata > 0 {
		opts = append(opts, pdb.WithStrata(j.strata))
	}
	if j.spill {
		opts = append(opts, pdb.WithMaxMemory(spillBudget), pdb.WithSpillDir(e.spillDir))
	}
	return opts
}

func eval(ctx context.Context, q *pdb.Query, exact bool, opts []pdb.Option) (*pdb.Result, error) {
	if exact {
		return q.EvalExact(ctx, opts...)
	}
	return q.Eval(ctx, opts...)
}

// closedLoop runs whole cycles of jobs, one caller, until budget has
// passed. Latency samples come only from whole cycles, so every job kind
// weighs the same in each run. With a replayer each query is traced:
// prepared and evaluated inside a root span, then replayed layer by layer.
func (e *engineEnv) closedLoop(ctx context.Context, cycle []job, budget time.Duration, rp *replayer,
	check func(j job, res *pdb.Result)) (*loopStats, error) {
	ls := &loopStats{byKind: make(map[string][]float64)}
	ls.begin(e.eng)
	start := time.Now()
	last := start
	for time.Since(start) < budget {
		for _, j := range cycle {
			seed := j.seed
			if j.fresh {
				e.calls++
				seed = e.cfg.seed*1_000_003 + e.calls
			}
			ls.attempted++
			opts := e.options(j, seed)
			src, q := e.corpus.scens[j.scen].sc.Query, e.queries[j.scen]
			var err error
			if j.window {
				w := e.windows[j.scen]
				src, _ = w.draw(e.rng, e.cfg.trials(w.scen))
				if rp == nil {
					if q, err = e.eng.Prepare(src); err != nil {
						return nil, err
					}
				}
			}
			t0 := time.Now()
			ls.lag = append(ls.lag, float64(t0.Sub(last))/1e6)
			var res *pdb.Result
			var lat time.Duration
			if rp == nil {
				res, err = eval(ctx, q, j.exact, opts)
				lat = time.Since(t0)
			} else {
				res, lat, err = e.tracedCall(ctx, rp, j, src, seed, opts)
			}
			last = time.Now()
			if err != nil {
				ls.failed++
				ls.errs = append(ls.errs, fmt.Sprintf("%s query: %v", j.label(e), err))
				continue
			}
			ms := float64(lat) / 1e6
			ls.lat = append(ls.lat, ms)
			if j.spill {
				ls.spillLat = append(ls.spillLat, ms)
			}
			ls.byKind[j.label(e)] = append(ls.byKind[j.label(e)], ms)
			ls.completed++
			ls.addStats(res.Stats(), res.Len(), j.spill)
			check(j, res)
		}
	}
	ls.end(e.eng, time.Since(start))
	return ls, nil
}

// tracedCall prepares and evaluates one query inside a root span, then
// replays it. The returned latency is the root span's duration.
func (e *engineEnv) tracedCall(ctx context.Context, rp *replayer, j job, src string, seed int64, opts []pdb.Option) (*pdb.Result, time.Duration, error) {
	req := rp.nextReq.Add(1)
	root := rp.rec.start(0, req, "query")
	prep := rp.rec.start(root, req, "prepare")
	q, err := e.eng.Prepare(src)
	rp.rec.finish(prep)
	if err != nil {
		return nil, 0, err
	}
	evalID := rp.rec.start(root, req, "pdb.eval")
	res, err := eval(ctx, q, j.exact, opts)
	rp.rec.finish(evalID)
	rp.rec.finish(root)
	if err != nil {
		return nil, 0, err
	}
	spans := rp.rec.snapshot()
	lat := spans[root-1].dur()
	var mem int64
	if j.spill {
		mem = spillBudget
	}
	err = rp.replay(ctx, tracedQuery{
		req: req, prepare: prep, eval: evalID, src: src,
		opts:  coreOptions(seed, e.cfg.nproc, j.strata, mem, e.spillDir),
		exact: j.exact, sampled: res.Stats().SampledTrials,
	})
	return res, lat, err
}

// measure runs the closed loop for the configured seconds and records
// its metrics. A traced run spends the first half untraced and the
// second half traced.
func (e *engineEnv) measure(c *collector, cycle []job, check func(j job, res *pdb.Result)) error {
	ctx := context.Background()
	budget := time.Duration(e.cfg.seconds) * time.Second
	if !e.cfg.trace {
		ls, err := e.closedLoop(ctx, cycle, budget, nil, check)
		if err != nil {
			return err
		}
		loopMetrics(c, ls)
		return nil
	}
	lsA, err := e.closedLoop(ctx, cycle, budget/2, nil, check)
	if err != nil {
		return err
	}
	loopMetrics(c, lsA)
	var peers []string
	if e.shards != nil {
		peers = e.shards.addrs
	}
	rp, err := newReplayer(e.corpus, e.cfg.nproc, peers)
	if err != nil {
		return err
	}
	defer rp.close()
	lsB, err := e.closedLoop(ctx, cycle, budget/2, rp, check)
	if err != nil {
		return err
	}
	c.attempted += lsB.attempted
	c.failed += lsB.failed
	for _, e := range lsB.errs {
		c.fail(e)
	}
	traceMetrics(c, rp, median(lsB.lat), median(lsA.lat))
	// No HTTP layer on a closed loop over the facade.
	for _, m := range []string{"server.ttfb_ms", "server.stream_ms", "server.bytes_per_row",
		"server.admission_wait_ms", "server.reject_rate"} {
		c.set(m, 0, 0)
	}
	return nil
}

// loopMetrics records the end-to-end metrics and the loop-level layer
// counters of one measured loop.
func loopMetrics(c *collector, ls *loopStats) {
	c.attempted += ls.attempted
	c.failed += ls.failed
	for _, e := range ls.errs {
		c.fail(e)
	}
	n := float64(ls.completed)
	c.set("query_p50_ms", median(ls.lat), len(ls.lat))
	pct, v, ok := tail(ls.lat, 10)
	if !ok && len(ls.lat) > 0 {
		// Too few samples for a tail: report the slowest one.
		pct, v = 100, sortedCopy(ls.lat)[len(ls.lat)-1]
	}
	c.tailPct = pct
	c.set("query_tail_ms", v, len(ls.lat))
	for k, xs := range ls.byKind {
		c.kinds[k] = sampled{Value: median(xs), Unit: "ms", Samples: len(xs)}
	}
	c.set("queries_per_s", n/ls.wall.Seconds(), int(ls.completed))
	c.set("alloc_mb_per_query", ratio(float64(ls.mem1.TotalAlloc-ls.mem0.TotalAlloc)/1e6, n), int(ls.completed))
	c.set("peak_rss_mb", peakRSSMB(), 1)
	c.set("spill_query_p50_ms", median(ls.spillLat), len(ls.spillLat))
	c.set("error_rate", ratio(float64(ls.failed), float64(ls.attempted)), int(ls.attempted))
	if _, ok := c.metrics["slo_miss_rate"]; !ok {
		c.set("slo_miss_rate", 0, int(ls.attempted))
	}
	c.set("go.gc_cycles_per_query", ratio(float64(ls.mem1.NumGC-ls.mem0.NumGC), n), int(ls.completed))
	c.set("go.gc_pause_ms_per_query", ratio(float64(ls.mem1.PauseTotalNs-ls.mem0.PauseTotalNs)/1e6, n), int(ls.completed))
	c.set("harness.gen_lag_ms", median(ls.lag), len(ls.lag))

	c.set("urel.tuples_out_per_query", ratio(float64(ls.tuplesOut), n), int(ls.completed))
	c.set("urel.spill_bytes_per_query", ratio(float64(ls.spillBytes), float64(ls.spilled)), int(ls.spilled))
	c.set("urel.spill_files_per_query", ratio(float64(ls.spillFiles), float64(ls.spilled)), int(ls.spilled))
	c.set("dnf.exact_factored_per_query", ratio(float64(ls.factored), n), int(ls.completed))
	c.set("karpluby.trials_per_query", ratio(float64(ls.sampled), n), int(ls.completed))
	c.set("core.reused_trial_ratio", ratio(float64(ls.reused), float64(ls.reused+ls.sampled)), int(ls.completed))
	c.set("core.cache_hits_per_query", ratio(float64(ls.hits), n), int(ls.completed))
	c.set("core.restarts_per_query", ratio(float64(ls.restarts), n), int(ls.completed))
	c.set("pdb.rows_per_query", ratio(float64(ls.rows), n), int(ls.completed))

	var bytes, batches, mergeNs, failovers, hedges int64
	if ls.cl0 != nil && ls.cl1 != nil {
		for i, s := range ls.cl1.Shards {
			bytes += s.BytesSent - ls.cl0.Shards[i].BytesSent
		}
		batches = ls.cl1.Batches - ls.cl0.Batches
		mergeNs = ls.cl1.MergeNanos - ls.cl0.MergeNanos
		failovers = ls.cl1.Failovers - ls.cl0.Failovers
		hedges = ls.cl1.Hedges - ls.cl0.Hedges
	}
	c.set("cluster.bytes_sent_per_query", ratio(float64(bytes), n), int(ls.completed))
	c.set("cluster.batches_per_query", ratio(float64(batches), n), int(ls.completed))
	c.set("cluster.merge_us_per_query", ratio(float64(mergeNs)/1e3, n), int(ls.completed))
	c.set("cluster.failovers", float64(failovers), 1)
	c.set("cluster.hedges", float64(hedges), 1)
}

// traceMetrics turns the replayer's spans into per-layer metrics and
// checks that the layers' self times plus unattributed add up to the
// traced queries' wall time.
func traceMetrics(c *collector, rp *replayer, tracedP50, untracedP50 float64) {
	spans := rp.rec.snapshot()
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	if len(roots) == 0 {
		c.fail("no traced query completed")
		return
	}
	n := float64(len(roots))
	var wall time.Duration
	for _, r := range roots {
		wall += r.dur()
	}
	self := selfTimes(spans)
	perQuery := make(map[string]float64)
	var sum time.Duration
	for name, d := range self {
		metric, ok := selfTimeMetrics[name]
		if !ok {
			c.fail(fmt.Sprintf("span %q has no self-time metric", name))
			continue
		}
		perQuery[metric] += float64(d) / 1e6 / n
		sum += d
	}
	if diff := sum - wall; diff > time.Microsecond || diff < -time.Microsecond {
		c.fail(fmt.Sprintf("self times add up to %v, traced wall time is %v", sum, wall))
	}
	for _, metric := range selfTimeMetrics {
		if metric != "prepare.us_per_call" {
			c.set(metric, perQuery[metric], len(roots))
		}
	}
	c.set("prepare.us_per_call", perQuery["prepare.us_per_call"]*1e3*n/float64(max(rp.prepares, 1)), int(rp.prepares))
	tot, cnt := totals(spans)
	c.set("core.ms_per_query", float64(tot["core.eval"])/1e6/n, cnt["core.eval"])
	c.set("cluster.sample_ms_per_query", float64(tot["cluster.sample"])/1e6/n, cnt["cluster.sample"])
	c.set("karpluby.ns_per_trial", ratio(float64(rp.busy), float64(rp.trials)), int(rp.trials))
	c.set("karpluby.allocs_per_trial", ratio(float64(rp.mallocs), float64(rp.trials)), int(rp.trials))
	c.set("urel.clauses_per_query", float64(rp.clauses)/n, len(roots))
	c.set("trace.query_ms", float64(wall)/1e6/n, len(roots))
	c.set("trace.queries", n, len(roots))
	c.set("harness.trace_overhead_pct", 100*(ratio(tracedP50, untracedP50)-1), len(roots))
}

// runCorpusSample drives the flat FPRAS over the three corpus queries.
func runCorpusSample(cfg config, c *collector) error { return runSampleLoad(cfg, c, 0) }

// runClusterSample is corpus-sample through two in-process shards.
func runClusterSample(cfg config, c *collector) error { return runSampleLoad(cfg, c, 2) }

func runSampleLoad(cfg config, c *collector, shards int) error {
	env, err := timedSetup(c, func(i int) (*engineEnv, *corpus, time.Duration, error) {
		e, err := setupEngine(cfg, fmt.Sprintf("setup%d", i), cfg.rows(sampleTuples), shards)
		if err != nil {
			return nil, nil, 0, err
		}
		return e, e.corpus, e.openTime, nil
	}, (*engineEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	ctx := context.Background()
	exact := make([]confTable, len(env.queries))
	for i, q := range env.queries {
		res, err := q.EvalExact(ctx, pdb.WithWorkers(cfg.nproc))
		if err != nil {
			return fmt.Errorf("exact confidences: %w", err)
		}
		exact[i] = newConfTable(res)
	}
	if env.windows, err = buildWindows(ctx, env.corpus, cfg.nproc); err != nil {
		return err
	}
	var cycle []job
	for i := range env.queries {
		cycle = append(cycle, job{scen: i, fresh: true, window: true})
	}
	var bc boundCheck
	err = env.measure(c, cycle, func(j job, res *pdb.Result) { bc.addResult(exact[j.scen], res, defaultEps) })
	if err != nil {
		return err
	}
	checkBoundRate(c, bc)
	if shards > 0 {
		return clusterParity(ctx, c, env)
	}
	return nil
}

// clusterParity checks that the clustered engine returns results
// bit-identical to a single-node engine on the fixed check seed, over the
// first key window of each scenario.
func clusterParity(ctx context.Context, c *collector, env *engineEnv) error {
	local, err := env.db.Engine()
	if err != nil {
		return err
	}
	for i, w := range env.windows {
		src, _ := w.draw(nil, env.cfg.trials(w.scen))
		lq, err := local.Prepare(src)
		if err != nil {
			return err
		}
		q, err := env.eng.Prepare(src)
		if err != nil {
			return err
		}
		opts := []pdb.Option{pdb.WithWorkers(env.cfg.nproc), pdb.WithSeed(checkSeed)}
		want, err := lq.Eval(ctx, opts...)
		if err != nil {
			return err
		}
		got, err := q.Eval(ctx, opts...)
		if err != nil {
			return err
		}
		if fingerprint(got) != fingerprint(want) {
			c.fail(fmt.Sprintf("cluster result for %s differs from single-node at seed %d",
				env.corpus.scens[i].sc.Name, checkSeed))
		}
	}
	return nil
}

// buildWindows prepares every scenario's key windows.
func buildWindows(ctx context.Context, c *corpus, workers int) ([]keyWindows, error) {
	udb, err := loadURel(c)
	if err != nil {
		return nil, err
	}
	var out []keyWindows
	for _, s := range c.scens {
		w, err := newKeyWindows(ctx, s.sc.Name, s.sc.Query, udb, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// runCorpusExact alternates exact and stratified (fully factored)
// evaluation over the larger corpus; one query in three spills.
func runCorpusExact(cfg config, c *collector) error {
	env, err := timedSetup(c, func(i int) (*engineEnv, *corpus, time.Duration, error) {
		e, err := setupEngine(cfg, fmt.Sprintf("setup%d", i), cfg.rows(exactTuples), 0)
		if err != nil {
			return nil, nil, 0, err
		}
		return e, e.corpus, e.openTime, nil
	}, (*engineEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	ctx := context.Background()
	// A cycle of 18: every (scenario, mode) pair three times, spilled once.
	var cycle []job
	for r := 0; r < 3; r++ {
		for s := range env.queries {
			for m := 0; m < 2; m++ {
				j := job{scen: s, exact: m == 0, spill: r == (s+m)%3, seed: cfg.seed}
				if m == 1 {
					j.strata = exactStrata
				}
				cycle = append(cycle, j)
			}
		}
	}
	// References: the exact confidences, and each mode's in-memory result,
	// which every later call (spilled or not) must reproduce bit for bit.
	exact := make([]confTable, len(env.queries))
	ref := make(map[[2]int]string)
	for s, q := range env.queries {
		for m := 0; m < 2; m++ {
			j := job{scen: s, exact: m == 0, seed: cfg.seed}
			if m == 1 {
				j.strata = exactStrata
			}
			res, err := eval(ctx, q, j.exact, env.options(j, j.seed))
			if err != nil {
				return fmt.Errorf("reference results: %w", err)
			}
			ref[[2]int{s, m}] = fingerprint(res)
			if m == 0 {
				exact[s] = newConfTable(res)
			}
		}
	}
	var bc boundCheck
	err = env.measure(c, cycle, func(j job, res *pdb.Result) {
		m := 0
		if !j.exact {
			m = 1
			bc.addResult(exact[j.scen], res, defaultEps)
		}
		if fingerprint(res) != ref[[2]int{j.scen, m}] {
			c.fail(fmt.Sprintf("%s result (exact=%t spilled=%t) differs from the in-memory reference",
				env.corpus.scens[j.scen].sc.Name, j.exact, j.spill))
		}
	})
	if err != nil {
		return err
	}
	checkBoundRate(c, bc)
	return nil
}

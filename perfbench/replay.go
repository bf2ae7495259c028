package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dnf"
	"repro/internal/expr"
	"repro/internal/karpluby"
	"repro/internal/parser"
	"repro/internal/sched"
	"repro/internal/urel"
	"repro/internal/vars"
)

// replayer re-runs a traced query through each layer's public entry
// points and records one span per call. The replays run after the query
// they explain, so they never slow the query itself; their spans hang
// under the query's spans as logical children.
type replayer struct {
	rec     *recorder
	udb     *urel.Database
	pool    *sched.Pool
	cache   *core.Cache // mirrors the facade engine's cross-query cache
	coord   *cluster.Coordinator
	nextReq atomic.Int64

	// Counts kept by the replays, for the per-layer ratios.
	clauses  int64
	trials   int64
	busy     time.Duration // summed per-worker sampling time
	mallocs  uint64
	prepares int64
}

// newReplayer loads the corpus through the store layer and, when peers
// are given, dials its own coordinator so cluster batches can be timed.
func newReplayer(c *corpus, workers int, peers []string) (*replayer, error) {
	udb, err := loadURel(c)
	if err != nil {
		return nil, err
	}
	r := &replayer{rec: &recorder{}, udb: udb, pool: sched.New(workers), cache: core.NewCache(4096)}
	if len(peers) > 0 {
		if r.coord, err = cluster.New(cluster.Config{Peers: peers}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *replayer) close() {
	if r != nil && r.coord != nil {
		r.coord.Close()
	}
}

// tracedQuery is one query to replay.
type tracedQuery struct {
	req     int64
	prepare spanID // parent of the parser/algebra replays
	eval    spanID // parent of the core replay
	src     string
	opts    core.Options
	exact   bool
	sampled int64 // trials the real query sampled
}

// replaySeedOffset shifts the core replay's seed off the query's own, so
// the replay samples fresh chunks instead of reading the counts the
// query left in the shards' chunk caches. The shift is the same for every
// replay, so replays of one seed still share estimator-cache entries.
const replaySeedOffset = 1 << 40

// coreOptions mirrors the facade's options for one query's core replay.
func coreOptions(seed int64, workers, strata int, maxMemory int64, spillDir string) core.Options {
	o := core.Options{Eps0: defaultEps, Delta: defaultDelta, Seed: seed + replaySeedOffset, Workers: workers, Strata: strata}
	if maxMemory > 0 {
		o.MaxMemory, o.SpillDir = maxMemory, spillDir
	}
	return o
}

// replay runs the layer replays of one traced query.
func (r *replayer) replay(ctx context.Context, t tracedQuery) error {
	var plan algebra.Query
	var err error
	r.rec.time(t.prepare, t.req, "parser.parse", func() { plan, err = parser.Parse(t.src) })
	if err != nil {
		return err
	}
	r.rec.time(t.prepare, t.req, "algebra.validate", func() { err = algebra.Validate(plan) })
	if err != nil {
		return err
	}
	r.rec.time(t.prepare, t.req, "algebra.infer_schema", func() { _, err = algebra.InferSchema(plan, r.udb) })
	if err != nil {
		return err
	}
	r.prepares++

	coreID := r.rec.start(t.eval, t.req, "core.eval")
	eng := core.NewEngine(r.udb, t.opts)
	var td *timedDist
	if r.coord != nil {
		td = &timedDist{inner: r.coord, rec: r.rec, parent: coreID, req: t.req}
		eng.SetDistributor(td)
	}
	if t.exact {
		_, err = eng.EvalExactContext(ctx, plan)
	} else {
		eng.SetCache(r.cache)
		_, err = eng.EvalApproxContext(ctx, plan)
	}
	r.rec.finish(coreID)
	if err != nil {
		return fmt.Errorf("core replay: %w", err)
	}

	ev := algebra.NewParallelURelEvaluator(r.udb, r.pool)
	var in algebra.URelResult
	r.rec.time(coreID, t.req, "urel.eval", func() { in, err = ev.EvalContext(ctx, confInput(plan)) })
	if err != nil {
		return fmt.Errorf("urel replay: %w", err)
	}
	var groups []urel.TupleConf
	r.rec.time(coreID, t.req, "urel.lineage", func() {
		groups = urel.NewExec(r.pool, urel.NewCounters()).Lineage(in.Rel)
	})
	tab := ev.DB().Vars
	for _, g := range groups {
		r.clauses += int64(len(g.F))
	}
	switch {
	case t.exact:
		r.rec.time(coreID, t.req, "dnf.confidence", func() {
			_ = r.pool.ForEach(len(groups), func(i int) error {
				dnf.Confidence(groups[i].F, tab)
				return nil
			})
		})
	case t.opts.Strata > 0:
		r.rec.time(coreID, t.req, "dnf.factor", func() {
			_ = r.pool.ForEach(len(groups), func(i int) error {
				dnf.Factor(groups[i].F.Dedup(), tab, dnf.DefaultFactorLimits)
				return nil
			})
		})
	}
	if t.sampled > 0 && !t.exact {
		// Remote sampling is explained by the cluster batch that did it.
		parent := coreID
		if first := td.firstSpan(); first != 0 {
			parent = first
		}
		r.rec.time(parent, t.req, "karpluby.sample", func() { err = r.sample(groups, tab, t.sampled, t.opts.Seed) })
	}
	return err
}

// confInput returns the part of a plan the conf (or σ̂) operator reads:
// the conf input, or the σ̂ input projected on its first conf argument.
func confInput(q algebra.Query) algebra.Query {
	switch n := q.(type) {
	case algebra.Conf:
		return n.In
	case algebra.Let:
		return algebra.Let{Name: n.Name, Def: n.Def, In: confInput(n.In)}
	case algebra.ApproxSelect:
		targets := make([]expr.Target, len(n.Args[0].Attrs))
		for i, a := range n.Args[0].Attrs {
			targets[i] = expr.Keep(a)
		}
		return algebra.Project{In: n.In, Targets: targets}
	}
	return q
}

// sampleChunk bounds one sampling task, so large formulas spread over
// every worker.
const sampleChunk = 1 << 16

// sample spends total Karp–Luby trials over the non-singleton lineage
// formulas, split in proportion to their Chernoff budgets — the split the
// engine's flat conf path uses — on the replayer's worker pool.
func (r *replayer) sample(groups []urel.TupleConf, tab *vars.Table, total, seed int64) error {
	type chunk struct {
		est *karpluby.Estimator
		n   int64
	}
	var ests []*karpluby.Estimator
	var budgets []int64
	var sum int64
	for _, g := range groups {
		f := g.F.Dedup()
		if len(f) <= 1 {
			continue
		}
		est, err := karpluby.NewEstimator(f, tab, nil)
		if err != nil {
			return err
		}
		b := karpluby.TrialsFor(defaultEps, defaultDelta, est.ClauseCount())
		ests = append(ests, est)
		budgets = append(budgets, b)
		sum += b
	}
	if sum == 0 {
		return nil
	}
	var chunks []chunk
	left := total
	for i, est := range ests {
		n := total * budgets[i] / sum
		if i == len(ests)-1 {
			n = left
		}
		left -= n
		for n > 0 {
			c := min(n, sampleChunk)
			chunks = append(chunks, chunk{est: est, n: c})
			n -= c
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var busy atomic.Int64
	err := r.pool.ForEach(len(chunks), func(i int) error {
		sh := chunks[i].est.Shard(rand.New(rand.NewSource(seed + int64(i))))
		start := time.Now()
		sh.Add(int(chunks[i].n))
		busy.Add(int64(time.Since(start)))
		return nil
	})
	runtime.ReadMemStats(&after)
	r.trials += total
	r.busy += time.Duration(busy.Load())
	r.mallocs += after.Mallocs - before.Mallocs
	return err
}

// timedDist wraps the coordinator as a core.Distributor and records one
// cluster.sample span per scatter-gather batch.
type timedDist struct {
	inner  core.Distributor
	rec    *recorder
	parent spanID
	req    int64

	mu    sync.Mutex
	first spanID
}

func (d *timedDist) SampleChunks(ctx context.Context, tasks []core.RemoteTask) ([]core.RemoteCounts, error) {
	id := d.rec.start(d.parent, d.req, "cluster.sample")
	d.mu.Lock()
	if d.first == 0 {
		d.first = id
	}
	d.mu.Unlock()
	defer d.rec.finish(id)
	return d.inner.SampleChunks(ctx, tasks)
}

// firstSpan returns the first batch span, 0 when none ran (or d is nil).
func (d *timedDist) firstSpan() spanID {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.first
}

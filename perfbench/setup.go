package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/urel"
	"repro/internal/workload"
	"repro/pdb"
)

// Fixed accuracy of every estimate: the facade defaults ε = δ = 0.05
// (pdb.defaultOptions), mirrored by the core replay.
const (
	defaultEps   = 0.05
	defaultDelta = 0.05
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 11
)

// scenarioData is one generated corpus scenario.
type scenarioData struct {
	sc   workload.Scenario
	rows int64             // tuples generated
	src  map[string]string // relation name → pdbstore path
}

// corpus is the generated input of one run.
type corpus struct {
	scens  []scenarioData
	write  time.Duration
	bytes  int64
	tuples int64
}

// scenarioSeed derives scenario i's generator seed from the workload seed.
func scenarioSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return int64(x & math.MaxInt64)
}

// genCorpus writes every corpus scenario under dir, at the number of
// tuples rows gives for its name.
func genCorpus(dir string, rows map[string]int64, seed int64) (*corpus, error) {
	c := &corpus{}
	start := time.Now()
	for i, sc := range workload.Scenarios() {
		sdir := filepath.Join(dir, sc.Name)
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		n := rows[sc.Name]
		src, err := sc.Generate(sdir, n, scenarioSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", sc.Name, err)
		}
		c.scens = append(c.scens, scenarioData{sc: sc, rows: n, src: src})
	}
	c.write = time.Since(start)
	for _, s := range c.scens {
		for _, path := range s.src {
			fi, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			c.bytes += fi.Size()
			r, err := store.Open(path)
			if err != nil {
				return nil, err
			}
			c.tuples += r.Rows()
			r.Close()
		}
	}
	return c, nil
}

// sources merges every scenario's relations into one pdb.Open map.
func (c *corpus) sources() map[string]string {
	out := make(map[string]string)
	for _, s := range c.scens {
		for name, path := range s.src {
			out[name] = path
		}
	}
	return out
}

// loadURel loads the corpus into a U-relational database through the
// store layer's public entry points, the way pdb.Open does, for the
// replays and the key windows.
func loadURel(c *corpus) (*urel.Database, error) {
	udb := urel.NewDatabase()
	for name, path := range c.sources() {
		r, err := store.Open(path)
		if err != nil {
			return nil, err
		}
		rr, err := r.Relation(rel.NewInterner())
		r.Close()
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
		udb.AddComplete(name, rr)
	}
	return udb, nil
}

// shardCacheChunks bounds each shard's chunk-count cache. Fresh seeds
// never hit it, so it only grows; at this bound it fills within the first
// seconds of a run, and peak RSS stops depending on how many queries a run
// completes. (The default bound, 65536, is still filling when a run ends.)
const shardCacheChunks = 1 << 14

// shardSet is a group of in-process cluster shards on loopback.
type shardSet struct {
	shards []*cluster.Shard
	addrs  []string
	wg     sync.WaitGroup
}

// startShards boots n shards whose sampling workers add up to workers.
func startShards(n, workers int) (*shardSet, error) {
	ss := &shardSet{}
	for i := 0; i < n; i++ {
		w := workers / n
		if i < workers%n {
			w++
		}
		if w < 1 {
			w = 1
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ss.close()
			return nil, err
		}
		sh := cluster.NewShard(cluster.ShardConfig{Workers: w, CacheChunks: shardCacheChunks})
		ss.shards = append(ss.shards, sh)
		ss.addrs = append(ss.addrs, ln.Addr().String())
		ss.wg.Add(1)
		go func() {
			defer ss.wg.Done()
			_ = sh.Serve(ln) // returns once Close stops the listener
		}()
	}
	return ss, nil
}

func (ss *shardSet) close() {
	if ss == nil {
		return
	}
	for _, sh := range ss.shards {
		sh.Close()
	}
	ss.wg.Wait()
}

// engineEnv is a set-up facade over one corpus: the database, a shared
// engine (optionally clustered) and the scenario queries, prepared.
type engineEnv struct {
	cfg      config
	corpus   *corpus
	db       *pdb.DB
	eng      *pdb.Engine
	queries  []*pdb.Query
	shards   *shardSet
	spillDir string
	openTime time.Duration
	calls    int64      // fresh seeds drawn so far
	rng      *rand.Rand // draws key windows; seeded by the workload seed
	windows  []keyWindows
}

func (e *engineEnv) close() {
	if e.eng != nil {
		e.eng.Close()
	}
	e.shards.close()
}

// setupEngine generates the corpus, opens it, boots shards when asked and
// prepares the scenario queries.
func setupEngine(cfg config, name string, rows map[string]int64, shards int) (*engineEnv, error) {
	dir, err := subdir(cfg, name)
	if err != nil {
		return nil, err
	}
	c, err := genCorpus(dir, rows, cfg.seed)
	if err != nil {
		return nil, err
	}
	e := &engineEnv{cfg: cfg, corpus: c, spillDir: filepath.Join(dir, "spill"), rng: rand.New(rand.NewSource(cfg.seed))}
	if err := os.MkdirAll(e.spillDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	e.db, err = pdb.Open(c.sources())
	if err != nil {
		return nil, err
	}
	e.openTime = time.Since(start)
	var eopts []pdb.EngineOption
	if shards > 0 {
		e.shards, err = startShards(shards, cfg.nproc)
		if err != nil {
			return nil, err
		}
		eopts = append(eopts, pdb.WithEngineCluster(pdb.ClusterOptions{Peers: e.shards.addrs}))
	}
	e.eng, err = e.db.Engine(eopts...)
	if err != nil {
		e.close()
		return nil, err
	}
	if err := e.eng.PingCluster(context.Background()); err != nil {
		e.close()
		return nil, err
	}
	for _, s := range c.scens {
		q, err := e.eng.Prepare(s.sc.Query)
		if err != nil {
			e.close()
			return nil, err
		}
		e.queries = append(e.queries, q)
	}
	return e, nil
}

// timedSetup runs setup setupRepeats times, keeps the last environment,
// and records setup_s (median) plus the store-layer set-up metrics.
func timedSetup[E any](c *collector, setup func(i int) (E, *corpus, time.Duration, error), closeEnv func(E)) (E, error) {
	var env E
	var times, writes, opens []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // start each set-up from the same heap state
		start := time.Now()
		e, corp, open, err := setup(i)
		if err != nil {
			return env, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		writes = append(writes, corp.write.Seconds())
		opens = append(opens, open.Seconds())
		if i < setupRepeats-1 {
			closeEnv(e)
			continue
		}
		env = e
		c.set("store.bytes_per_tuple", ratio(float64(corp.bytes), float64(corp.tuples)), 1)
		for _, s := range corp.scens {
			c.corpus[s.sc.Name] = s.rows
		}
	}
	c.set("setup_s", median(times), len(times))
	c.set("store.write_s", median(writes), len(writes))
	c.set("store.open_s", median(opens), len(opens))
	return env, nil
}

// fingerprint hashes a result's rows, in result order, bit-exactly.
func fingerprint(res *pdb.Result) string {
	h := sha256.New()
	cols := res.Columns()
	for row := range res.Rows() {
		for _, col := range cols {
			fmt.Fprintf(h, "%s|", valueKey(row.Value(col)))
		}
		fmt.Fprintf(h, "%x|%t|%s\n", math.Float64bits(row.ErrorBound()), row.Singular(), row.Condition())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// valueKey renders a result value exactly (floats by their bits).
func valueKey(v any) string {
	switch x := v.(type) {
	case float64:
		return "f" + strconv.FormatUint(math.Float64bits(x), 16)
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case string:
		return "s" + x
	case bool:
		return "b" + strconv.FormatBool(x)
	default:
		return fmt.Sprintf("?%v", x)
	}
}

// confTable maps a conf result's non-P columns to its P value.
type confTable map[string]float64

// confKey joins the values of every column but pcol.
func confKey(cols []string, pcol string, value func(string) any) string {
	var b strings.Builder
	for _, c := range cols {
		if c == pcol {
			continue
		}
		b.WriteString(valueKey(value(c)))
		b.WriteByte('|')
	}
	return b.String()
}

func newConfTable(res *pdb.Result) confTable {
	t := confTable{}
	cols := res.Columns()
	for row := range res.Rows() {
		t[confKey(cols, "P", row.Value)] = row.Float("P")
	}
	return t
}

// boundCheck counts the rows of an approximate conf result, and those
// whose estimate lies outside the relative bound eps around the exact
// confidence. A row missing from the exact result counts as a violation.
type boundCheck struct {
	rows, violations int64
}

func (b *boundCheck) add(exact confTable, cols []string, eps float64, rowValue func(string) any, p float64) {
	b.rows++
	want, ok := exact[confKey(cols, "P", rowValue)]
	if !ok || math.Abs(p-want) > eps*want+1e-12 {
		b.violations++
	}
}

func (b *boundCheck) addResult(exact confTable, res *pdb.Result, eps float64) {
	cols := res.Columns()
	for row := range res.Rows() {
		b.add(exact, cols, eps, row.Value, row.Float("P"))
	}
}

func (b *boundCheck) rate() float64 { return ratio(float64(b.violations), float64(b.rows)) }

// checkBoundRate fails the run when the violation rate exceeds δ, the
// per-row failure probability the estimates promise.
func checkBoundRate(c *collector, b boundCheck) {
	c.set("bound_violation_rate", b.rate(), int(b.rows))
	if b.rate() > defaultDelta {
		c.fail(fmt.Sprintf("%d of %d approximate rows outside their (ε=%.2g) bound: rate above δ=%.2g",
			b.violations, b.rows, defaultEps, defaultDelta))
	}
}

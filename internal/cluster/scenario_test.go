package cluster_test

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultproxy"
	"repro/pdb"
)

// Spec scenarios for the horizontal-sharding surface, written
// SHALL / WHEN / THEN against the public pdb API with real shard servers
// on loopback TCP. The fixture mirrors the stratified scenario suite: two
// independent relations whose product yields skewed, connected clause
// components, so both the flat and the stratified estimation paths
// genuinely sample.

// skewDB builds the fixture database.
func skewDB(t testing.TB) *pdb.DB {
	t.Helper()
	probsR := []float64{0.9, 0.6, 0.05, 0.02, 0.002, 0.0005}
	rowsR := make([][]any, len(probsR))
	for i := range probsR {
		rowsR[i] = []any{int64(i), int64(i / 2)}
	}
	db, err := pdb.NewBuilder().
		Independent("R", []string{"ID", "Grp"}, rowsR, probsR).
		Independent("S", []string{"SID"},
			[][]any{{int64(1)}, {int64(2)}, {int64(3)}, {int64(4)}, {int64(5)}, {int64(6)}},
			[]float64{0.8, 0.3, 0.04, 0.01, 0.002, 0.001}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const grpConfProgram = `conf(project[Grp](product(R, S)))`

// startShards boots n in-process shard servers on loopback and returns
// their addresses. Cleanup closes them.
func startShards(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		sh := cluster.NewShard(cluster.ShardConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go sh.Serve(ln)
		t.Cleanup(func() { sh.Close() })
	}
	return addrs
}

// fingerprint renders every result row, in order, as the service would.
func fingerprint(t testing.TB, res *pdb.Result) string {
	t.Helper()
	var sb strings.Builder
	for row := range res.Rows() {
		sb.WriteString(row.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// evalClustered evaluates the program on a fresh engine backed by the
// given peers (nil peers = single-node) and returns the row fingerprint.
func evalClustered(t testing.TB, db *pdb.DB, program string, peers []string, opts ...pdb.Option) string {
	t.Helper()
	var engOpts []pdb.EngineOption
	if peers != nil {
		engOpts = append(engOpts, pdb.WithEngineCluster(pdb.ClusterOptions{Peers: peers}))
	}
	eng, err := db.Engine(engOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.Prepare(program)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Eval(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, res)
}

// SHALL: a fixed-seed evaluation returns bit-identical rows on 1, 2, and
// 4 shards and on a single node — the worker-count determinism contract
// generalized to shard count — on both estimation paths.
//
// WHEN the same program runs single-node and clustered at several shard
// counts THEN every fingerprint matches byte for byte.
func TestClusterShardCountBitParity(t *testing.T) {
	db := skewDB(t)
	for _, tc := range []struct {
		name string
		opts []pdb.Option
	}{
		{"flat", []pdb.Option{pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(42)}},
		{"stratified", []pdb.Option{pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(42), pdb.WithStrata(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := evalClustered(t, db, grpConfProgram, nil, tc.opts...)
			for _, shards := range []int{1, 2, 4} {
				peers := startShards(t, shards)
				got := evalClustered(t, db, grpConfProgram, peers, tc.opts...)
				if got != want {
					t.Errorf("%d shards: rows diverge from single-node\n got: %q\nwant: %q", shards, got, want)
				}
			}
		})
	}
}

// SHALL: σ̂ evaluations distribute too, bit-identically.
//
// WHEN an approximate-select program runs on 2 shards THEN its rows match
// the single-node run byte for byte.
func TestClusterSigmaHatBitParity(t *testing.T) {
	db := skewDB(t)
	program := `aselect[p1 >= 0.05 over conf[Grp]](project[Grp](product(R, S)))`
	opts := []pdb.Option{pdb.WithEpsilon(0.1), pdb.WithDelta(0.1), pdb.WithSeed(7)}
	want := evalClustered(t, db, program, nil, opts...)
	peers := startShards(t, 2)
	got := evalClustered(t, db, program, peers, opts...)
	if got != want {
		t.Errorf("σ̂ rows diverge from single-node\n got: %q\nwant: %q", got, want)
	}
	// And on the stratified σ̂ path.
	sopts := append(opts, pdb.WithStrata(4))
	want = evalClustered(t, db, program, nil, sopts...)
	got = evalClustered(t, db, program, startShards(t, 4), sopts...)
	if got != want {
		t.Errorf("stratified σ̂ rows diverge from single-node\n got: %q\nwant: %q", got, want)
	}
}

// evalOn evaluates the program on an engine built with the given cluster
// options and returns the row fingerprint plus the final cluster stats.
// A nil error is asserted — these are the zero-client-visible-errors
// scenarios.
func evalOn(t testing.TB, db *pdb.DB, program string, copts pdb.ClusterOptions, opts ...pdb.Option) (string, *pdb.ClusterStats) {
	t.Helper()
	eng, err := db.Engine(pdb.WithEngineCluster(copts))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.Prepare(program)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Eval(context.Background(), opts...)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return fingerprint(t, res), eng.ClusterStats()
}

// SHALL: killing any single shard mid-query fails its chunk ranges over
// to the survivors — zero client-visible errors, rows bit-identical to
// single-node, on the flat, stratified, and σ̂ paths.
//
// WHEN one of four shards dies mid-response (deterministic frame-aware
// cut via faultproxy, then refused reconnects) THEN Eval succeeds with
// the single-node fingerprint and the stats record failovers.
func TestClusterShardFailoverBitParity(t *testing.T) {
	db := skewDB(t)
	paths := []struct {
		name    string
		program string
		opts    []pdb.Option
	}{
		{"flat", grpConfProgram, []pdb.Option{pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(42)}},
		{"stratified", grpConfProgram, []pdb.Option{pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(42), pdb.WithStrata(4)}},
		{"sigma-hat", `aselect[p1 >= 0.05 over conf[Grp]](project[Grp](product(R, S)))`,
			[]pdb.Option{pdb.WithEpsilon(0.1), pdb.WithDelta(0.1), pdb.WithSeed(7)}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			want := evalClustered(t, db, path.program, nil, path.opts...)
			var totalFailovers, victimsHit int64
			for victim := 0; victim < 4; victim++ {
				// Three healthy shards plus one behind a chaos proxy that
				// lets the handshake through, cuts the first sample
				// response mid-frame, and refuses every reconnect. The
				// ring hashes the victim's address, so first find an
				// address that owns traffic for this program.
				backends, peers := trafficVictim(t, db, path.program, victim, path.opts)
				fp := faultproxy.New(backends[victim], faultproxy.Script{
					Conns:   map[int]faultproxy.Policy{1: {Action: faultproxy.Truncate, CutFrames: 1, CutBytes: 3}},
					Default: faultproxy.Policy{Action: faultproxy.Refuse},
				}, 42)
				if err := fp.Start(peers[victim]); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fp.Close() })
				got, cs := evalOn(t, db, path.program, pdb.ClusterOptions{
					Peers:            peers,
					DialTimeout:      time.Second,
					Retries:          1,
					RetryBackoff:     5 * time.Millisecond,
					BreakerThreshold: 2,
					ProbeInterval:    -1, // victim never comes back; don't probe
					// Hedging off: an adaptive hedge can cover the victim's
					// units and finish the batch before its retries exhaust,
					// leaving the failure unrecorded — this scenario is about
					// re-dispatch, and hedging has its own test below.
					HedgeAfter: -1,
				}, path.opts...)
				if got != want {
					t.Errorf("victim %d: rows diverge from single-node\n got: %q\nwant: %q", victim, got, want)
				}
				// The kill only proves failover when the victim actually
				// carried traffic; trafficVictim placed it so it does.
				if fp.Stats().Conns > 0 {
					victimsHit++
					if cs.Failovers == 0 {
						t.Errorf("victim %d: carried traffic and died, but no failovers recorded", victim)
					}
					for _, s := range cs.Shards {
						if s.Addr == peers[victim] && s.Healthy {
							t.Errorf("victim %d: killed shard reported healthy", victim)
						}
					}
				}
				totalFailovers += cs.Failovers
			}
			if victimsHit == 0 {
				t.Error("no victim received any traffic across 4 kills; the scenario proved nothing")
			}
			if totalFailovers == 0 {
				t.Error("no failovers recorded across 4 kills")
			}
		})
	}
}

// trafficVictim starts four shards and finds an address for a proxy in
// front of shard victim that the program's chunk placement sends
// traffic to. Placement hashes peer addresses, so a small wave can miss a
// given address entirely; each attempt runs the program once through a
// pass-through proxy on a fresh address and keeps the first one that saw
// a connection. The proxy is closed on return, so the caller can listen
// on peers[victim] itself with the same placement.
func trafficVictim(t *testing.T, db *pdb.DB, program string, victim int, opts []pdb.Option) (backends, peers []string) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		backends = startShards(t, 4)
		peers = append([]string(nil), backends...)
		probe := faultproxy.New(backends[victim], faultproxy.Script{}, 1)
		if err := probe.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		peers[victim] = probe.Addr()
		evalOn(t, db, program, pdb.ClusterOptions{Peers: peers, HedgeAfter: -1}, opts...)
		carried := probe.Stats().Conns > 0
		probe.Close()
		if carried {
			return backends, peers
		}
	}
	t.Fatalf("no address for victim %d carried traffic in 20 placements", victim)
	return nil, nil
}

// SHALL: when every shard is gone and local fallback is off, Eval
// returns a typed *pdb.ClusterError in bounded time — never a hang —
// and once the breakers trip the failure is immediate and names the
// cluster, not one peer.
//
// WHEN both shards refuse connections THEN the first Eval surfaces a
// *pdb.ClusterError for a dead peer and the second (breakers now open)
// wraps pdb.ErrNoHealthyShards.
func TestClusterAllShardsDeadTypedError(t *testing.T) {
	db := skewDB(t)
	var peers []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, ln.Addr().String())
		ln.Close() // refused from the start
	}
	eng, err := db.Engine(pdb.WithEngineCluster(pdb.ClusterOptions{
		Peers:            peers,
		DialTimeout:      500 * time.Millisecond,
		RequestTimeout:   time.Second,
		Retries:          1,
		RetryBackoff:     10 * time.Millisecond,
		BreakerThreshold: 1,
		ProbeInterval:    -1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.Prepare(grpConfProgram)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = q.Eval(context.Background(), pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(1))
	var ce *pdb.ClusterError
	if !errors.As(err, &ce) {
		t.Fatalf("Eval error = %v (%T), want *pdb.ClusterError", err, err)
	}
	if ce.Shard != peers[0] && ce.Shard != peers[1] {
		t.Errorf("ClusterError.Shard = %q, want one of %v", ce.Shard, peers)
	}
	if ce.Attempts != 2 {
		t.Errorf("ClusterError.Attempts = %d, want 2 (1 try + 1 retry)", ce.Attempts)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("failure took %v; the deadline/retry envelope should bound it to seconds", elapsed)
	}
	// Breakers tripped at threshold 1: the next evaluation is refused at
	// plan time with the cluster-wide sentinel.
	_, err = q.Eval(context.Background(), pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(1))
	if !errors.As(err, &ce) {
		t.Fatalf("second Eval error = %v (%T), want *pdb.ClusterError", err, err)
	}
	if !errors.Is(err, pdb.ErrNoHealthyShards) {
		t.Errorf("second Eval error = %v, want wrapped pdb.ErrNoHealthyShards", err)
	}
	cs := eng.ClusterStats()
	for _, s := range cs.Shards {
		if s.Breaker != "open" {
			t.Errorf("shard %s breaker = %q, want open", s.Addr, s.Breaker)
		}
		if s.Healthy {
			t.Errorf("dead shard %s reported healthy", s.Addr)
		}
		if s.LastError == "" {
			t.Errorf("dead shard %s reported no last error", s.Addr)
		}
	}
}

// SHALL: with LocalFallback enabled the coordinator degrades to sampling
// in-process when the whole fleet is down — still bit-identical, because
// the fallback replays the same wire-codec remap a shard would.
//
// WHEN both shards refuse connections and LocalFallback is on THEN Eval
// succeeds with the single-node fingerprint and records local fallbacks.
func TestClusterLocalFallbackBitParity(t *testing.T) {
	db := skewDB(t)
	opts := []pdb.Option{pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(42)}
	want := evalClustered(t, db, grpConfProgram, nil, opts...)
	var peers []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, ln.Addr().String())
		ln.Close()
	}
	got, cs := evalOn(t, db, grpConfProgram, pdb.ClusterOptions{
		Peers:            peers,
		DialTimeout:      300 * time.Millisecond,
		Retries:          0,
		RetryBackoff:     5 * time.Millisecond,
		BreakerThreshold: 1,
		ProbeInterval:    -1,
		LocalFallback:    true,
	}, opts...)
	if got != want {
		t.Errorf("local-fallback rows diverge from single-node\n got: %q\nwant: %q", got, want)
	}
	if cs.LocalFallbacks == 0 {
		t.Error("no local fallbacks recorded")
	}
	if !cs.LocalFallback {
		t.Error("stats do not report local fallback enabled")
	}
}

// SHALL: a straggling shard is hedged — its work unit is duplicated to a
// fast shard after HedgeAfter and the first response wins, with the
// duplicate discarded. Rows stay bit-identical: the race is bit-neutral
// by construction.
//
// WHEN one of two shards delays every response far beyond the hedge
// delay THEN Eval matches single-node and the stats record hedges and
// hedge wins.
func TestClusterHedgedStragglerBitParity(t *testing.T) {
	db := skewDB(t)
	opts := []pdb.Option{pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(42)}
	want := evalClustered(t, db, grpConfProgram, nil, opts...)
	backends := startShards(t, 2)
	fp := faultproxy.New(backends[1], faultproxy.Script{
		Default: faultproxy.Policy{Action: faultproxy.Pass, Latency: 400 * time.Millisecond},
	}, 7)
	if err := fp.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fp.Close() })
	got, cs := evalOn(t, db, grpConfProgram, pdb.ClusterOptions{
		Peers:      []string{backends[0], fp.Addr()},
		HedgeAfter: 50 * time.Millisecond,
	}, opts...)
	if got != want {
		t.Errorf("hedged rows diverge from single-node\n got: %q\nwant: %q", got, want)
	}
	if cs.Hedges == 0 {
		t.Error("no hedges recorded against a 400ms straggler with a 50ms hedge delay")
	}
	if cs.HedgeWins == 0 {
		t.Error("no hedge wins recorded")
	}
}

// SHALL: a tripped breaker re-admits the shard automatically once
// background probes see it healthy again — no operator action, no
// restart.
//
// WHEN a proxied shard goes hard-down (queries fail over and trip its
// breaker) and later comes back THEN the breaker closes within a few
// probe intervals and the shard serves RPCs again.
func TestClusterBreakerReadmission(t *testing.T) {
	db := skewDB(t)
	// Each phase evaluates under its own seed: the engine's estimator
	// cache is keyed by (content, seed), so a reused seed would replay
	// cached counts without touching the shards at all.
	seedOpts := func(seed int64) []pdb.Option {
		return []pdb.Option{pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(seed)}
	}
	backends := startShards(t, 2)
	fp := faultproxy.New(backends[1], faultproxy.Script{}, 1)
	if err := fp.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fp.Close() })
	peers := []string{backends[0], fp.Addr()}
	eng, err := db.Engine(pdb.WithEngineCluster(pdb.ClusterOptions{
		Peers:            peers,
		DialTimeout:      500 * time.Millisecond,
		Retries:          0,
		RetryBackoff:     5 * time.Millisecond,
		BreakerThreshold: 1,
		ProbeInterval:    50 * time.Millisecond,
		HedgeAfter:       -1, // deterministic failover accounting (see above)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.Prepare(grpConfProgram)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(seed int64) string {
		t.Helper()
		res, err := q.Eval(context.Background(), seedOpts(seed)...)
		if err != nil {
			t.Fatalf("Eval(seed %d): %v", seed, err)
		}
		return fingerprint(t, res)
	}
	single := func(seed int64) string {
		t.Helper()
		return evalClustered(t, db, grpConfProgram, nil, seedOpts(seed)...)
	}
	if got, want := eval(42), single(42); got != want {
		t.Fatalf("healthy-cluster rows diverge:\n got: %q\nwant: %q", got, want)
	}
	fp.SetDown(true)
	if got, want := eval(43), single(43); got != want {
		t.Fatalf("rows diverge during outage:\n got: %q\nwant: %q", got, want)
	}
	breaker := func(addr string) string {
		for _, s := range eng.ClusterStats().Shards {
			if s.Addr == addr {
				return s.Breaker
			}
		}
		return "?"
	}
	// half-open is fine too: a background probe may already be in
	// flight — either way the shard is out of the placement view.
	if st := breaker(fp.Addr()); st == "closed" {
		t.Fatalf("downed shard breaker = %q, want open or half-open", st)
	}
	fp.SetDown(false)
	deadline := time.Now().Add(5 * time.Second)
	for breaker(fp.Addr()) != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker still %q 5s after the shard recovered", breaker(fp.Addr()))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got, want := eval(44), single(44); got != want {
		t.Fatalf("rows diverge after re-admission:\n got: %q\nwant: %q", got, want)
	}
	cs := eng.ClusterStats()
	if cs.Probes == 0 {
		t.Error("no probes recorded across a trip/recover cycle")
	}
	if cs.Failovers == 0 {
		t.Error("no failovers recorded for the outage query")
	}
}

// flakyProxy fronts a live shard but kills the first `drops` accepted
// connections before any bytes flow — a transient network failure.
func flakyProxy(t *testing.T, backend string, drops int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var dropped atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if dropped.Add(1) <= int64(drops) {
				conn.Close()
				continue
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				continue
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); io.Copy(up, conn); up.Close() }()
			go func() { defer wg.Done(); io.Copy(conn, up); conn.Close() }()
			go func() { wg.Wait() }()
		}
	}()
	return ln.Addr().String()
}

// SHALL: a transient shard failure is retried with backoff and the
// evaluation succeeds — bit-identically to an unperturbed run.
//
// WHEN the first connection to a shard is dropped THEN the retry lands
// and the rows match the single-node fingerprint.
func TestClusterTransientFailureRetried(t *testing.T) {
	db := skewDB(t)
	opts := []pdb.Option{pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(42)}
	want := evalClustered(t, db, grpConfProgram, nil, opts...)
	backend := startShards(t, 1)[0]
	proxy := flakyProxy(t, backend, 1)
	eng, err := db.Engine(pdb.WithEngineCluster(pdb.ClusterOptions{
		Peers:        []string{proxy},
		Retries:      2,
		RetryBackoff: 10 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.Prepare(grpConfProgram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Eval(context.Background(), opts...)
	if err != nil {
		t.Fatalf("Eval through flaky proxy: %v", err)
	}
	if got := fingerprint(t, res); got != want {
		t.Errorf("retried rows diverge from single-node\n got: %q\nwant: %q", got, want)
	}
	cs := eng.ClusterStats()
	if cs == nil || len(cs.Shards) != 1 {
		t.Fatalf("ClusterStats = %+v, want one shard", cs)
	}
	if cs.Shards[0].Retries == 0 {
		t.Error("transient failure recorded no retries")
	}
	if !cs.Shards[0].Healthy {
		t.Error("recovered shard reported unhealthy")
	}
}

// SHALL: shard-side chunk caches serve repeated scatters without
// re-sampling, and the coordinator reports the reuse.
//
// WHEN the same fixed-budget query evaluates twice on fresh engines
// against the same shards THEN the second run's shard stats show reused
// trials and unchanged sampled-trial counts.
func TestClusterShardCacheReuse(t *testing.T) {
	db := skewDB(t)
	sh := cluster.NewShard(cluster.ShardConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sh.Serve(ln)
	defer sh.Close()
	peers := []string{ln.Addr().String()}
	opts := []pdb.Option{pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(42)}

	first := evalClustered(t, db, grpConfProgram, peers, opts...)
	sampledAfterFirst := sh.Stats().TrialsSampled
	if sampledAfterFirst == 0 {
		t.Fatal("first clustered run sampled nothing on the shard")
	}
	second := evalClustered(t, db, grpConfProgram, peers, opts...)
	if first != second {
		t.Errorf("repeated run diverges:\n got: %q\nwant: %q", second, first)
	}
	st := sh.Stats()
	if st.TrialsSampled != sampledAfterFirst {
		t.Errorf("second run re-sampled: %d → %d trials", sampledAfterFirst, st.TrialsSampled)
	}
	if st.TrialsReused == 0 {
		t.Error("second run reported no reused trials")
	}
}

package cluster

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/karpluby"
	"repro/internal/sched"
)

// ShardConfig configures a shard server.
type ShardConfig struct {
	// Workers sizes the sampling pool (0 = GOMAXPROCS, like the engine).
	Workers int
	// CacheChunks bounds the shard-local chunk-count cache (entries;
	// 0 = DefaultCacheChunks, negative disables caching).
	CacheChunks int
	// Logger receives connection-level diagnostics; nil disables them.
	Logger *log.Logger
}

// DefaultCacheChunks is the default chunk-count cache bound.
const DefaultCacheChunks = 1 << 16

// Shard is a sampling server: it owns no data and no query planning —
// it receives self-contained estimation tasks (clause set, bit-exact
// probabilities, seed, chunk list), samples the assigned chunk streams on
// a local worker pool, and returns integer counts. A chunk's result is a
// pure function of (content key, seed, plan index, trial count), so the
// shard memoizes chunk counts in a bounded LRU: a re-scattered chunk —
// after a coordinator restart or cache eviction — is served without
// re-sampling and reported as reused.
type Shard struct {
	cfg  ShardConfig
	pool *sched.Pool

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]bool
	closed  bool
	lru     *list.List // of *chunkEntry, front = most recent
	entries map[chunkKey]*list.Element

	wg sync.WaitGroup

	requests      atomic.Int64
	tasks         atomic.Int64
	chunksSampled atomic.Int64
	trialsSampled atomic.Int64
	trialsReused  atomic.Int64
}

// chunkKey identifies one sampled chunk: the task's content fingerprint,
// its (stratum-resolved) seed and stratification coordinates, and the
// chunk's plan index and trial count.
type chunkKey struct {
	hi, lo    uint64
	seed      int64
	maxStrata int32
	stratum   int32
	index     int32
	n         int64
}

type chunkEntry struct {
	key     chunkKey
	clauses int // collision guard: |F| of the task that produced it
	hits    int64
}

// ShardStats is a snapshot of a shard's counters.
type ShardStats struct {
	Requests      int64 // sample RPCs served
	Tasks         int64 // estimation tasks across all RPCs
	ChunksSampled int64 // chunks actually sampled
	TrialsSampled int64 // trials actually sampled
	TrialsReused  int64 // trials served from the chunk cache
	CacheEntries  int   // chunk cache occupancy
}

// NewShard builds a shard server.
func NewShard(cfg ShardConfig) *Shard {
	if cfg.CacheChunks == 0 {
		cfg.CacheChunks = DefaultCacheChunks
	}
	return &Shard{
		cfg:     cfg,
		pool:    sched.New(cfg.Workers),
		conns:   map[net.Conn]bool{},
		lru:     list.New(),
		entries: map[chunkKey]*list.Element{},
	}
}

// Stats returns a snapshot of the shard's counters.
func (s *Shard) Stats() ShardStats {
	s.mu.Lock()
	entries := len(s.entries)
	s.mu.Unlock()
	return ShardStats{
		Requests:      s.requests.Load(),
		Tasks:         s.tasks.Load(),
		ChunksSampled: s.chunksSampled.Load(),
		TrialsSampled: s.trialsSampled.Load(),
		TrialsReused:  s.trialsReused.Load(),
		CacheEntries:  entries,
	}
}

// Serve accepts connections on ln until Close. Each connection carries
// synchronous request/response pairs; a malformed frame closes the
// connection (never the server).
func (s *Shard) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("cluster: shard is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for
// in-flight handlers to drain.
func (s *Shard) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Shard) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	logf := func(format string, args ...any) {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf(format, args...)
		}
	}
	// Handshake.
	typ, payload, err := readFrame(conn)
	if err != nil {
		return
	}
	if err := checkHello(typ, payload); err != nil {
		logf("cluster: %s: %v", conn.RemoteAddr(), err)
		var e enc
		e.str(err.Error())
		_ = writeFrame(conn, msgError, e.b)
		return
	}
	var ack enc
	ack.uv(protocolVersion)
	if err := writeFrame(conn, msgHelloAck, ack.b); err != nil {
		return
	}
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return // EOF or closed
		}
		switch typ {
		case msgPing:
			if err := writeFrame(conn, msgPong, nil); err != nil {
				return
			}
		case msgSample:
			tasks, err := decodeSampleRequest(payload)
			if err != nil {
				logf("cluster: %s: %v", conn.RemoteAddr(), err)
				var e enc
				e.str(err.Error())
				_ = writeFrame(conn, msgError, e.b)
				return
			}
			counts, err := s.sample(tasks)
			if err != nil {
				logf("cluster: %s: %v", conn.RemoteAddr(), err)
				var e enc
				e.str(err.Error())
				if writeFrame(conn, msgError, e.b) != nil {
					return
				}
				continue
			}
			if err := writeFrame(conn, msgSampleResult, encodeSampleResult(counts)); err != nil {
				return
			}
		default:
			logf("cluster: %s: unexpected message type %d", conn.RemoteAddr(), typ)
			return
		}
	}
}

// build reconstructs the estimator for one wire task. The restored table
// carries the coordinator's probabilities bit-for-bit and the clause set
// arrives in canonical order, so every derived quantity — the
// stratification plan, clause weights, the cumulative distribution, the
// name-sorted variable order that drives PRNG consumption — matches the
// coordinator's exactly. A flat task (MaxStrata 0) plans one stratum,
// whose chunk streams are the flat estimator's.
func (t *wireTask) build() (*karpluby.Stratified, error) {
	est, err := karpluby.NewStratified(t.clauses, t.table, karpluby.PlanStrata(t.clauses, t.table, t.maxStrata))
	if err != nil {
		return nil, fmt.Errorf("cluster: rebuilding estimator: %w", err)
	}
	if t.stratum >= est.StratumCount() {
		return nil, fmt.Errorf("cluster: stratum %d out of %d", t.stratum, est.StratumCount())
	}
	return est, nil
}

// sample executes one task batch: every (task, chunk) pair fans out
// across the shard's worker pool, chunk counts come from the LRU cache
// when a previous scatter already sampled them, and per-task sums are
// returned in request order.
func (s *Shard) sample(tasks []wireTask) ([]core.RemoteCounts, error) {
	s.requests.Add(1)
	s.tasks.Add(int64(len(tasks)))
	ests := make([]*karpluby.Stratified, len(tasks))
	for i := range tasks {
		est, err := tasks[i].build()
		if err != nil {
			return nil, err
		}
		ests[i] = est
	}
	type unit struct {
		task  int
		chunk sched.Chunk
	}
	var units []unit
	for i, t := range tasks {
		for _, c := range t.chunks {
			if c.N <= 0 || c.Index < 0 {
				return nil, errors.New("cluster: invalid chunk assignment")
			}
			units = append(units, unit{task: i, chunk: c})
		}
	}
	counts := make([]core.RemoteCounts, len(tasks))
	var mu sync.Mutex
	err := s.pool.ForEachCtx(context.Background(), len(units), func(i int) error {
		u := units[i]
		t := &tasks[u.task]
		key := chunkKey{
			hi: t.keyHi, lo: t.keyLo,
			seed:      t.seed,
			maxStrata: int32(t.maxStrata),
			stratum:   int32(t.stratum),
			index:     int32(u.chunk.Index),
			n:         u.chunk.N,
		}
		hits, reused := s.cachedHits(key, len(t.clauses))
		if !reused {
			rng := rand.New(rand.NewSource(sched.ChunkSeed(t.seed, u.chunk.Index)))
			sh := ests[u.task].Shard(t.stratum, rng)
			sh.Add(int(u.chunk.N))
			hits = sh.Hits()
			s.chunksSampled.Add(1)
			s.trialsSampled.Add(u.chunk.N)
			s.storeHits(key, len(t.clauses), hits)
		} else {
			s.trialsReused.Add(u.chunk.N)
		}
		mu.Lock()
		c := &counts[u.task]
		c.Hits += hits
		c.Trials += u.chunk.N
		if u.chunk.N < t.chunkSize {
			c.PartialHits += hits
			c.PartialTrials += u.chunk.N
		}
		if reused {
			c.ReusedTrials += u.chunk.N
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// cachedHits looks a chunk up in the LRU; the clause count guards against
// fingerprint collisions, as in the engine's estimator cache.
func (s *Shard) cachedHits(key chunkKey, clauses int) (int64, bool) {
	if s.cfg.CacheChunks < 0 {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return 0, false
	}
	ent := el.Value.(*chunkEntry)
	if ent.clauses != clauses {
		return 0, false
	}
	s.lru.MoveToFront(el)
	return ent.hits, true
}

func (s *Shard) storeHits(key chunkKey, clauses int, hits int64) {
	if s.cfg.CacheChunks < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*chunkEntry).hits = hits
		el.Value.(*chunkEntry).clauses = clauses
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(&chunkEntry{key: key, clauses: clauses, hits: hits})
	for len(s.entries) > s.cfg.CacheChunks {
		back := s.lru.Back()
		ent := back.Value.(*chunkEntry)
		s.lru.Remove(back)
		delete(s.entries, ent.key)
	}
}

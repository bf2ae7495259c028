package core

import (
	"context"

	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// A Distributor executes estimation chunk batches remotely. It is the
// seam the cluster layer plugs into: when an engine carries one, every
// sampling wave of the estimation driver is handed to it as typed work
// units instead of the local worker pool, and the returned integer counts
// are absorbed into the same merge targets. Because a chunk's PRNG stream
// is fixed by (task seed, plan index) and merged counts are commutative
// integer sums, results are bit-identical to local execution for any
// placement of chunks onto shards — which also licenses implementations
// to re-place chunks mid-batch (failover to a surviving shard, hedged
// duplicates, coordinator-local fallback) without changing a bit, as
// long as each chunk's counts are merged exactly once.
//
// The contract per task: for every listed chunk, sample exactly Chunk.N
// trials from the stream seeded by sched.ChunkSeed(Seed, Chunk.Index)
// over the shipped clause set and variable table (probabilities bit-exact,
// clause order preserved), and return the summed counts. The executor
// re-derives the deterministic karpluby.PlanStrata partition for
// MaxStrata and samples the Stratum-th band; a flat task (MaxStrata 0)
// plans one stratum.
type Distributor interface {
	// SampleChunks executes every task and returns one RemoteCounts per
	// task, in task order. An error aborts the batch; implementations
	// must return typed, bounded-time errors (no hangs) and must not
	// return partial results.
	SampleChunks(ctx context.Context, tasks []RemoteTask) ([]RemoteCounts, error)
}

// RemoteTask is one typed unit of scatterable estimation work: a content
// identity, the deterministic seed its chunk streams derive from, and the
// plan chunks to sample.
type RemoteTask struct {
	// KeyHi/KeyLo are the task's lineage-content fingerprint — the same
	// 64-bit words that key the engine's estimator cache. Shards use them
	// as cache and placement keys.
	KeyHi, KeyLo uint64
	// Seed is the stratum-resolved seed chunk streams derive from
	// (karpluby.StratumSeed(taskSeed, Stratum); the task seed itself for
	// stratum 0).
	Seed int64
	// ChunkSize is the full plan chunk size (round-aligned; only a
	// trailing chunk may be smaller).
	ChunkSize int64
	// MaxStrata is the job's band bound and Stratum the band to sample:
	// the executor rebuilds PlanStrata(Clauses, table, MaxStrata). A flat
	// job has MaxStrata 0, which plans a single stratum over the whole
	// clause set — the flat estimator's streams — so Stratum is 0.
	MaxStrata int
	Stratum   int
	// Clauses is the canonical (content-ordered, deduplicated) clause
	// set; Vars the variable table its bindings index into. Both must
	// cross the wire bit-exact for the determinism contract to hold.
	Clauses dnf.F
	Vars    *vars.Table
	// Chunks are the plan chunks to sample, by plan index.
	Chunks []sched.Chunk
}

// RemoteCounts is the merged result of one RemoteTask: plain integer sums
// that absorb exactly into the coordinator's estimator.
type RemoteCounts struct {
	// Hits and Trials sum over every assigned chunk (partial included).
	Hits, Trials int64
	// PartialHits/PartialTrials are the contribution of the trailing
	// undersized chunk, if one was assigned — the coordinator subtracts
	// them when publishing chunk-aligned cache snapshots.
	PartialHits, PartialTrials int64
	// ReusedTrials counts trials served from a shard-local chunk cache
	// instead of being sampled (a subset of Trials); the coordinator
	// reports them as reused, not sampled.
	ReusedTrials int64
}

// SetDistributor attaches a distributor: estimation batches scatter to it
// instead of running on the local pool. Exact algebra, planning, and
// result assembly stay local. A nil distributor (the default) restores
// single-process execution.
func (e *Engine) SetDistributor(d Distributor) { e.dist = d }

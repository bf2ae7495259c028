package core

import (
	"context"
	"fmt"

	"repro/internal/sched"
)

// Remote execution: when the engine carries a Distributor, estimation
// batches are shipped to shard processes instead of the local pool. The
// coordinator keeps everything else — exact algebra, factoring, chunk
// planning, wave allocation, stopping decisions, cache publication — so a
// remote run takes exactly the trajectory a local run would, absorbing
// the same integer counts from the wire that local workers would have
// merged from shard estimators.

// remoteStratWave executes one wave remotely: the wave's
// (job, stratum, chunk) tasks are grouped into one RemoteTask per
// (job, stratum) and scattered in one SampleChunks call; the returned
// counts absorb into the stratum merge targets exactly as local shard
// estimators would. The wave's assigned trials are charged against the
// trial limit before dispatch (conservatively including any trials a
// shard may end up serving from its local chunk cache). A flat job is one
// task with MaxStrata 0, so a flat batch is one round trip.
func (run *evalRun) remoteStratWave(ctx context.Context, tasks []stratTask) error {
	type group struct {
		j *stratJob
		s int
	}
	var order []group
	chunks := map[group][]sched.Chunk{}
	var total int64
	for _, t := range tasks {
		g := group{t.j, t.s}
		if _, ok := chunks[g]; !ok {
			order = append(order, g)
		}
		chunks[g] = append(chunks[g], sched.Chunk{Index: t.chunk, N: t.n})
		total += t.n
	}
	if err := run.chargeTrials(total); err != nil {
		return err
	}
	rts := make([]RemoteTask, len(order))
	for i, g := range order {
		rts[i] = RemoteTask{
			KeyHi: g.j.key.hi, KeyLo: g.j.key.lo,
			Seed:      g.j.strata[g.s].seed,
			ChunkSize: g.j.sizes[g.s],
			MaxStrata: g.j.maxStrata,
			Stratum:   g.s,
			Clauses:   g.j.f,
			Vars:      run.vars,
			Chunks:    chunks[g],
		}
	}
	counts, err := run.engine.dist.SampleChunks(ctx, rts)
	if err != nil {
		return err
	}
	if len(counts) != len(rts) {
		return fmt.Errorf("core: distributor returned %d results for %d tasks", len(counts), len(rts))
	}
	for i, g := range order {
		rc := counts[i]
		var want int64
		for _, c := range chunks[g] {
			want += c.N
		}
		if rc.Trials != want {
			return fmt.Errorf("core: distributor returned %d trials for a stratum wave assigned %d", rc.Trials, want)
		}
		g.j.est.AbsorbStratum(g.s, rc.Hits, rc.Trials)
		js := &g.j.strata[g.s]
		js.partialHits += rc.PartialHits
		js.partialTrials += rc.PartialTrials
		// Shard-cache-served trials count as reused, not sampled: the
		// final accounting adds the full trial delta, so move the reused
		// share over here.
		run.trials -= rc.ReusedTrials
		run.reused += rc.ReusedTrials
	}
	return nil
}

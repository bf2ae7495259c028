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

// runEstimatesRemote is runEstimates for a distributed engine: one
// RemoteTask per job carrying its delta chunks, one round trip, absorb,
// publish. The whole batch's assigned trials are charged against the
// trial limit before dispatch (conservatively including any trials a
// shard may end up serving from its local chunk cache).
func (run *evalRun) runEstimatesRemote(jobs []*estimateJob) error {
	defer func() { run.batch = nil }()
	ctx := run.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var tasks []RemoteTask
	var active []*estimateJob
	var assigned []int64
	for _, j := range jobs {
		chunks := sched.ChunksFrom(j.total, j.chunkSize, j.startChunk)
		if len(chunks) == 0 {
			continue
		}
		var n int64
		for _, c := range chunks {
			n += c.N
		}
		tasks = append(tasks, RemoteTask{
			KeyHi: j.key.hi, KeyLo: j.key.lo,
			Seed:      j.seed,
			ChunkSize: j.chunkSize,
			Clauses:   j.f,
			Vars:      run.vars,
			Chunks:    chunks,
		})
		active = append(active, j)
		assigned = append(assigned, n)
	}
	if len(tasks) > 0 {
		var total int64
		for _, n := range assigned {
			total += n
		}
		if err := run.chargeTrials(total); err != nil {
			return err
		}
		counts, err := run.engine.dist.SampleChunks(ctx, tasks)
		if err != nil {
			return err
		}
		if len(counts) != len(tasks) {
			return fmt.Errorf("core: distributor returned %d results for %d tasks", len(counts), len(tasks))
		}
		for i, j := range active {
			rc := counts[i]
			if rc.Trials != assigned[i] {
				return fmt.Errorf("core: distributor returned %d trials for a task assigned %d", rc.Trials, assigned[i])
			}
			j.est.Absorb(rc.Hits, rc.Trials)
			j.est.AdvanceTo(sched.FullChunks(j.total, j.chunkSize))
			// Shard-cache-served trials count as reused, not sampled; the
			// generic accounting below adds the full delta to run.trials,
			// so shift the reused share over here.
			run.trials -= rc.ReusedTrials
			run.reused += rc.ReusedTrials
			if run.cache != nil {
				// No PRNG tail crosses the wire: the snapshot's trailing
				// partial counts are replay-only (an exact replay returns
				// them; a larger budget re-samples that chunk from its
				// seed — still bit-identical).
				run.cache.store(j.key, j.est.ClauseCount(), j.chunkSize,
					j.total, j.est.Hits(), rc.PartialHits, rc.PartialTrials, nil,
					run.engine.opts.Seed)
			}
		}
	}
	for _, j := range jobs {
		run.trials += j.est.Trials() - j.startTrials
		run.reused += j.startTrials
	}
	return nil
}

// remoteStratWave executes one stratified wave remotely: the wave's
// (job, stratum, chunk) tasks are grouped into one RemoteTask per
// (job, stratum) and scattered; the returned counts absorb into the
// stratum merge targets exactly as local shard estimators would.
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
			Seed:      g.j.seeds[g.s],
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
		g.j.partialHits[g.s] += rc.PartialHits
		g.j.partialTrials[g.s] += rc.PartialTrials
		// As on the flat path: the final accounting adds the full trial
		// delta, so move the shard-cache-reused share to reused here.
		run.trials -= rc.ReusedTrials
		run.reused += rc.ReusedTrials
	}
	return nil
}

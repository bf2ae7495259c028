package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/karpluby"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/urel"
)

// keyColumn is the output column of each corpus scenario's conf query.
var keyColumn = map[string]string{
	"sensor-dedup":      "Sensor",
	"entity-resolution": "Name",
	"repair-whatif":     "Part",
}

// keyIsRepairKey marks the scenarios whose output key is a repair-key
// attribute, so a key filter can run before repair-key.
var keyIsRepairKey = map[string]bool{"sensor-dedup": true, "repair-whatif": true}

// windowPrograms returns scenario scen's corpus query with its output
// restricted to keys in [lo, hi], and a σ̂ variant over the same input.
// Where the output key is a repair-key attribute, the filter runs before
// repair-key: it keeps or drops whole key groups, so the surviving rows'
// distributions are unchanged. Otherwise it runs after repair-key. Either
// way every remaining output row keeps the exact confidence it has in the
// full query.
func windowPrograms(scen string, lo, hi any) (conf, aselect string) {
	key := keyColumn[scen]
	filter := fmt.Sprintf("%s >= %s and %s <= %s", key, literal(lo), key, literal(hi))
	var let, in string
	switch scen {
	case "sensor-dedup":
		in = `select[Value >= 27.5](repairkey[Sensor, Epoch @ Conf](select[` + filter + `](Readings)))`
	case "entity-resolution":
		let = "R := project[Cluster, Name](repairkey[Cluster @ Weight](Candidates));\n"
		in = `join(select[` + filter + `](R), select[Amount >= 900](Orders))`
	default: // repair-whatif
		in = `select[Cost >= 75](repairkey[Part @ Weight](select[` + filter + `](Parts)))`
	}
	return let + `conf(project[` + key + `](` + in + `))`,
		let + `aselect[p1 >= 0.5 over conf[` + key + `]](` + in + `)`
}

// literal renders a key value in the parser's surface syntax.
func literal(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case string:
		return "'" + strings.ReplaceAll(x, "'", "") + "'"
	default:
		return fmt.Sprint(x)
	}
}

// keyWindows holds a scenario's output keys in key order, each with the
// Karp–Luby trial budget its lineage costs, so a window can be drawn to a
// target budget: windows of one target cost about the same to sample
// wherever they fall.
type keyWindows struct {
	scen string
	keys []any
	cum  []float64 // cum[i]: summed budget of keys[:i]
}

// newKeyWindows evaluates the scenario query's conf input through the
// U-relational layer and groups its lineage per output key.
func newKeyWindows(ctx context.Context, scen, src string, udb *urel.Database, workers int) (keyWindows, error) {
	plan, err := parser.Parse(src)
	if err != nil {
		return keyWindows{}, err
	}
	pool := sched.New(workers)
	in, err := algebra.NewParallelURelEvaluator(udb, pool).EvalContext(ctx, confInput(plan))
	if err != nil {
		return keyWindows{}, err
	}
	type keyCost struct {
		key  any
		cost float64
	}
	var kc []keyCost
	for _, tc := range urel.NewExec(pool, urel.NewCounters()).Lineage(in.Rel) {
		cost := 1.0 // a single clause is exact: next to free
		if n := len(tc.F.Dedup()); n > 1 {
			cost = float64(karpluby.TrialsFor(defaultEps, defaultDelta, n))
		}
		kc = append(kc, keyCost{key: plainValue(tc.Row[0]), cost: cost})
	}
	sort.Slice(kc, func(i, j int) bool { return keyLess(kc[i].key, kc[j].key) })
	k := keyWindows{scen: scen, cum: []float64{0}}
	for _, x := range kc {
		k.keys = append(k.keys, x.key)
		k.cum = append(k.cum, k.cum[len(k.cum)-1]+x.cost)
	}
	if len(k.keys) == 0 {
		return k, fmt.Errorf("%s: query has no output keys", scen)
	}
	return k, nil
}

// plainValue converts a key value to the type pdb.Row.Value returns.
func plainValue(v rel.Value) any {
	if v.Kind() == rel.StringKind {
		return v.AsString()
	}
	return v.AsInt()
}

func keyLess(a, b any) bool {
	if x, ok := a.(string); ok {
		return x < b.(string)
	}
	return a.(int64) < b.(int64)
}

// total returns the summed budget of every key.
func (k keyWindows) total() float64 { return k.cum[len(k.cum)-1] }

// draw returns the programs over a window of keys whose summed budget is
// closest to target trials, starting at a uniformly drawn key among those
// whose windows fit. A target past the total covers every key.
func (k keyWindows) draw(rng *rand.Rand, target float64) (conf, aselect string) {
	n := len(k.keys)
	last := 0 // the last start whose window still reaches the target
	for last+1 < n && k.total()-k.cum[last+1] >= target {
		last++
	}
	start := 0
	if rng != nil {
		start = rng.Intn(last + 1)
	}
	end := start // the window is keys[start..end]
	for end+1 < n && k.cum[end+1]-k.cum[start] < target {
		end++
	}
	// Stop one key short when that lands closer to the target.
	if end > start && end+1 < len(k.cum) && target-(k.cum[end]-k.cum[start]) < k.cum[end+1]-k.cum[start]-target {
		end--
	}
	return windowPrograms(k.scen, k.keys[start], k.keys[end])
}

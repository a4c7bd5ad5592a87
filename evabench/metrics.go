package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"eva/internal/simclock"
)

// measured is one metric's value with the sample count behind it.
type measured struct {
	value   float64
	samples int
	// of names what was sampled, for the human-readable report.
	of string
}

// endToEndMetrics summarises the untraced passes: each metric is the
// median over the passes of one query list, averaged over the
// workload's lists.
func endToEndMetrics(st *runState) map[string]measured {
	var walls, sims, views, allocs, cpus, p50s perList
	queries, n := 0, 0
	for _, p := range st.passes {
		if p.traced {
			continue
		}
		walls.add(p.list, p.wall.Seconds())
		sims.add(p.list, p.sim.Total().Seconds())
		views.add(p.list, float64(p.viewBytes)/1e6)
		allocs.add(p.list, float64(p.alloc)/1e6)
		cpus.add(p.list, p.cpu.Seconds())
		p50s.add(p.list, median(durations(p.lat, time.Millisecond)))
		queries += len(p.lat)
		n++
	}
	setups := durations(st.setups, time.Second)
	return map[string]measured{
		"setup_s":      {median(setups), len(setups), "set-ups"},
		"wall_s":       {walls.value(), n, "passes"},
		"query_p50_ms": {p50s.value(), queries, "queries, median of per-pass medians"},
		"sim_s":        {sims.value(), n, "passes"},
		"view_mb":      {views.value(), n, "passes"},
		"alloc_mb":     {allocs.value(), n, "passes"},
		"cpu_s":        {cpus.value(), n, "passes"},
	}
}

// perList holds one metric's per-pass values by query list.
type perList [][]float64

func (l *perList) add(list int, v float64) {
	for len(*l) <= list {
		*l = append(*l, nil)
	}
	(*l)[list] = append((*l)[list], v)
}

// value is the mean over lists of each list's median.
func (l perList) value() float64 {
	var meds []float64
	for _, vs := range l {
		meds = append(meds, median(vs))
	}
	return mean(meds)
}

// tailLatency is the nearest-rank 90th percentile over every untraced
// query, and the sample count behind it.
func tailLatency(st *runState) (float64, int) {
	var lats []float64
	for _, p := range st.passes {
		if !p.traced {
			lats = append(lats, durations(p.lat, time.Millisecond)...)
		}
	}
	return percentile(lats, 0.9), len(lats)
}

// perLayerMetrics derives the layer numbers: times from the traced
// passes' spans, counters from the untraced passes (tracing adds
// EXPLAIN planning, which charges the virtual clock).
func perLayerMetrics(st *runState) map[string]measured {
	out := map[string]measured{}
	spans := st.rec.snapshot()
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
	}
	out["parser.ns_per_query"] = measured{mean(byName["parser.Parse"]), len(byName["parser.Parse"]), "queries"}
	out["optimizer.ns_per_query"] = measured{mean(byName["optimizer.Explain"]), len(byName["optimizer.Explain"]), "queries"}
	out["storage.open_ns"] = measured{median(durations(st.opens, time.Nanosecond)), len(st.opens), "opens"}

	// Operator self time: a span's duration less its child operators'.
	childDur := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent > 0 && isOperator(s.Name) && isOperator(spans[s.Parent-1].Name) {
			childDur[s.Parent] += s.dur()
		}
	}
	type opTotals struct{ self, rows map[string]float64 }
	perPass := map[int]opTotals{}
	for _, s := range spans {
		if !isOperator(s.Name) {
			continue
		}
		t, ok := perPass[s.Pass]
		if !ok {
			t = opTotals{map[string]float64{}, map[string]float64{}}
			perPass[s.Pass] = t
		}
		op := strings.TrimPrefix(s.Name, "exec.")
		t.self[op] += float64(s.dur() - childDur[s.ID])
		t.rows[op] += float64(s.Rows)
	}
	var tracedWalls []float64
	for _, p := range st.passes {
		if p.traced {
			tracedWalls = append(tracedWalls, p.wall.Seconds())
		}
	}
	for _, op := range execOps {
		var self, rows []float64
		for _, t := range perPass {
			self = append(self, t.self[op])
			rows = append(rows, t.rows[op])
		}
		if len(self) == 0 { // no operator trace: sessions run without one
			self, rows = []float64{0}, []float64{0}
		}
		out["exec."+op+".self_ns"] = measured{median(self), len(perPass), "traced passes"}
		out["exec."+op+".rows"] = measured{median(rows), len(perPass), "traced passes"}
	}

	var (
		unionMax int
		diffSum  int
		diffN    int
		queries  int
		walls    []float64
		col      = map[string][]float64{}
		add      = func(name string, v float64) { col[name] = append(col[name], v) }
	)
	for _, p := range st.passes {
		if p.traced {
			continue
		}
		queries += p.queries
		walls = append(walls, p.wall.Seconds())
		unionMax = max(unionMax, p.unionMax)
		diffSum += p.diffSum
		diffN += p.diffN
		add("sim.optimize_s", p.sim.Get(simclock.CatOptimize).Seconds())
		add("sim.udf_s", p.sim.Get(simclock.CatUDF).Seconds())
		add("sim.materialize_s", p.sim.Get(simclock.CatMaterialize).Seconds())
		add("sim.read_view_s", p.sim.Get(simclock.CatReadView).Seconds())
		add("sim.read_video_s", p.sim.Get(simclock.CatReadVideo).Seconds())
		var evaluated, reused, dup int
		for _, s := range p.udf {
			evaluated += s.Evaluated
			reused += s.Reused
			dup += max(0, s.Evaluated-s.Distinct)
		}
		add("udf.evaluated", float64(evaluated))
		add("udf.reused", float64(reused))
		add("udf.hit_pct", p.hitPct)
		add("udf.dup_evals", float64(dup))
		add("storage.view_bytes_per_row", ratio(float64(p.viewBytes), float64(p.viewRows)))
		add("pool.hit_ratio", ratio(float64(p.pool.Hits), float64(p.pool.Hits+p.pool.Misses)))
		add("go.mallocs_per_query", ratio(float64(p.mallocs), float64(p.queries)))
		add("go.gc_cycles", float64(p.gcs))
	}
	for name, vs := range col {
		out[name] = measured{median(vs), len(vs), "passes"}
	}
	out["symbolic.union_atoms_max"] = measured{float64(unionMax), queries, "queries"}
	out["symbolic.diff_atoms_mean"] = measured{ratio(float64(diffSum), float64(diffN)), diffN, "UDF predicates"}
	out["trace.overhead_frac"] = measured{ratio(median(tracedWalls), median(walls)) - 1, len(tracedWalls), "traced passes"}
	return out
}

func isOperator(name string) bool {
	op, ok := strings.CutPrefix(name, "exec.")
	return ok && op == operatorClass(op)
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return ratio(s, float64(len(vs)))
}

// median is the middle value, or the mean of the middle two.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quartiles are the first and third quartiles as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method).
func quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// metricSpec names one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec is one workload's entry in BENCHMARK.json.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// config is the schema of BENCHMARK.json.
type config struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

const runSeconds = 45

// workloadSpecs records each workload's sizes and why it was chosen.
// View appends are plain writes with no fsync; only a compaction
// commit syncs, on every workload alike. Two runnable workloads are
// not listed: sessions-2 (see buildWorkload) and explore-jackson,
// whose wall time spread about twice as widely between runs as these
// two on the same shared host.
var workloadSpecs = []workloadSpec{
	{Name: "high-cold", Why: "Fig. 5 VBENCH-HIGH, 8 queries on MEDIUM-UA-DETRAC (14k frames, 8.3 cars/frame), empty views: the materialising path, UDF and view-append work (appends unsynced)"},
	{Name: "high-warm", Why: "the same 8 queries reopening primed views (13.8 MB): the cache-fits path, view probe/read and log replay dominate, little UDF work"},
}

// endToEnd are the metrics an analyst sees, reported by every
// untraced run. Bounds on timings are the widest allowed, 0.25: on a
// shared 2-core machine identical work drifts by 10-35% over minutes
// as neighbours load the host. Two more are printed but not listed,
// because a listed metric must exist on every workload and never read
// 0: failed_frac (carried by the result's attempted and failed counts)
// and query_p90_ms (printed where a run holds at least 100 queries, so
// that ten lie beyond it).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_s", Unit: "s", Better: "lower", Bound: 0.1},
	{Name: "view_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// execOps are the operator classes reported from EXPLAIN ANALYZE
// traces. Other operators (sort, group, limit) keep spans named
// exec.other but no metric: none of the workloads plans one.
var execOps = []string{"scan", "filter", "crossapply", "scalarapply", "project"}

// perLayer are the traced run's metrics, named after the module that
// does the work.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{Name: "parser.ns_per_query", Unit: "ns", Better: "lower"},
		{Name: "optimizer.ns_per_query", Unit: "ns", Better: "lower"},
		{Name: "symbolic.union_atoms_max", Unit: "count", Better: "lower"},
		{Name: "symbolic.diff_atoms_mean", Unit: "count", Better: "lower"},
		{Name: "sim.optimize_s", Unit: "s", Better: "lower"},
	}
	for _, op := range execOps {
		m = append(m,
			metricSpec{Name: "exec." + op + ".self_ns", Unit: "ns", Better: "lower"},
			metricSpec{Name: "exec." + op + ".rows", Unit: "count", Better: "lower"})
	}
	return append(m,
		metricSpec{Name: "udf.evaluated", Unit: "count", Better: "lower"},
		metricSpec{Name: "udf.reused", Unit: "count", Better: "higher"},
		metricSpec{Name: "udf.hit_pct", Unit: "%", Better: "higher"},
		metricSpec{Name: "udf.dup_evals", Unit: "count", Better: "lower"},
		metricSpec{Name: "sim.udf_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "storage.open_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "storage.view_bytes_per_row", Unit: "B/row", Better: "lower"},
		metricSpec{Name: "sim.materialize_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "sim.read_view_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "sim.read_video_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "pool.hit_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "go.mallocs_per_query", Unit: "count", Better: "lower"},
		metricSpec{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
		metricSpec{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	)
}()

// benchConfig is the content of BENCHMARK.json, derived from the
// tables above so the committed file cannot drift from the program.
func benchConfig() config {
	return config{
		Command:    []string{"bash", "evabench/run.sh"},
		Paths:      []string{"evabench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// encodeConfig renders BENCHMARK.json.
func encodeConfig(c config) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return nil, fmt.Errorf("encode BENCHMARK.json: %w", err)
	}
	return buf.Bytes(), nil
}

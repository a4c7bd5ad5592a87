// Command evabench is the repository benchmark: it runs one of the
// exploratory-session workloads of BENCHMARK.json through the eva API,
// checks every answer against ModeNoReuse, and prints each metric by
// name with its unit, ending with one JSON result line.
//
// Run it from the repository root (evabench/run.sh builds it first):
//
//	bash evabench/run.sh --workload high-cold --seed 1 --seconds 10 --trace 0
//
// --trace 1 adds traced passes and reports the per-layer metrics
// instead. --compare PARENT.jsonl CHANGE.jsonl compares two run sets
// recorded with --record; --emit-config prints BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// setupReps is the number of set-ups a run measures before its passes,
// so that setup_s is a median over many samples on every workload.
const setupReps = 16

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	correct, err := runMain()
	if err != nil {
		fmt.Fprintln(os.Stderr, "evabench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// runMain does what the flags ask and reports whether every answer
// was correct.
func runMain() (bool, error) {
	var (
		opts       options
		traceFlag  int
		buildDir   string
		record     string
		compare    bool
		emitConfig bool
	)
	flag.StringVar(&opts.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&opts.seed, "seed", 1, "seed the inputs derive from")
	flag.Float64Var(&opts.seconds, "seconds", runSeconds, "how long the passes run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced passes too and reports the per-layer metrics")
	flag.StringVar(&buildDir, "build-dir", ".bench_build", "directory for views, cached reference answers and spans")
	flag.StringVar(&record, "record", "", "append this run's result to a JSON-lines run set")
	flag.BoolVar(&compare, "compare", false, "compare two run sets: --compare PARENT.jsonl CHANGE.jsonl")
	flag.BoolVar(&emitConfig, "emit-config", false, "print BENCHMARK.json")
	flag.Parse()

	switch {
	case emitConfig:
		data, err := encodeConfig(benchConfig())
		if err != nil {
			return false, err
		}
		_, err = os.Stdout.Write(data)
		return true, err
	case compare:
		if flag.NArg() != 2 {
			return false, fmt.Errorf("--compare takes PARENT.jsonl CHANGE.jsonl")
		}
		return true, runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	case traceFlag != 0 && traceFlag != 1:
		return false, fmt.Errorf("--trace takes 0 or 1")
	}
	opts.trace = traceFlag == 1
	opts.scale, opts.setupReps = 1, setupReps
	tag := opts.workload + "-seed" + strconv.FormatInt(opts.seed, 10)
	opts.workDir = filepath.Join(buildDir, "work", tag+"-"+strconv.Itoa(os.Getpid()))
	opts.cacheDir = filepath.Join(buildDir, "ref")
	opts.spansPath = filepath.Join(buildDir, "spans", tag+".json")

	st, err := run(opts)
	if err != nil {
		return false, err
	}
	res := report(os.Stdout, opts, st)
	if record != "" {
		if err := appendRecord(record, runRecord{Workload: opts.workload, Seed: opts.seed, Trace: opts.trace, Result: res}); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// report prints every metric by name, unit and sample count, and
// returns the result line.
func report(w io.Writer, opts options, st *runState) result {
	specs, values := endToEnd, endToEndMetrics(st)
	if opts.trace {
		specs, values = perLayer, perLayerMetrics(st)
	}
	fmt.Fprintf(w, "evabench %s seed=%d trace=%t: %d passes, %d queries, %d failed\n",
		opts.workload, opts.seed, opts.trace, len(st.passes), st.attempted, st.failed)
	for _, f := range st.failures {
		fmt.Fprintln(w, "  WRONG", f)
	}
	res := result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		m := values[s.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (%d %s)\n", s.Name, m.value, s.Unit, m.samples, m.of)
		res.Metrics[s.Name] = metricValue{Value: m.value, Unit: s.Unit}
	}
	if !opts.trace {
		var walls []string
		for _, p := range st.passes {
			walls = append(walls, strconv.FormatFloat(p.wall.Seconds(), 'f', 3, 64))
		}
		fmt.Fprintf(w, "  %-28s %s\n", "pass wall_s", strings.Join(walls, " "))
		if p90, n := tailLatency(st); n >= 100 {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s (%d queries)\n", "query_p90_ms", p90, "ms", n)
		}
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-6s (%d of %d queries)\n", "failed_frac", ratio(float64(st.failed), float64(st.attempted)), "ratio", st.failed, st.attempted)
	return res
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"eva"
	"eva/internal/parser"
	"eva/internal/types"
)

func TestExploreGeneratorDeterministic(t *testing.T) {
	a := exploreSQL(7, exploreQueries, 14000)
	b := exploreSQL(7, exploreQueries, 14000)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("the same seed generated different query lists")
	}
	if c := exploreSQL(8, exploreQueries, 14000); strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Fatal("seeds 7 and 8 generated the same query list")
	}
	if len(a) != exploreQueries {
		t.Fatalf("%d queries, want %d", len(a), exploreQueries)
	}
	w, err := buildWorkload("explore-jackson", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := buildWorkload("explore-jackson", 7, 1)
	seen := map[string]bool{}
	for i, l := range w.lists {
		joined := strings.Join(l[0], "\n")
		if joined != strings.Join(again.lists[i][0], "\n") {
			t.Fatalf("list %d differs between two builds of seed 7", i)
		}
		seen[joined] = true
	}
	if len(w.lists) != exploreLists || len(seen) != exploreLists {
		t.Fatalf("%d lists, %d distinct, want %d", len(w.lists), len(seen), exploreLists)
	}
	for _, q := range a {
		st, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if _, ok := st.(*parser.SelectStmt); !ok {
			t.Fatalf("%q is not a SELECT", q)
		}
	}
}

func TestSeedPicksTheWorld(t *testing.T) {
	w1, err := buildWorkload("high-cold", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := buildWorkload("high-cold", 2, 1)
	again, _ := buildWorkload("high-cold", 1, 1)
	if w1.ds == w2.ds || w1.ds != again.ds {
		t.Fatalf("dataset not a function of the seed: %+v %+v %+v", w1.ds, w2.ds, again.ds)
	}
	if w1.ds.Frames != 14000 || w1.ds.Density != 8.3 {
		t.Fatalf("seeded dataset changed size: %+v", w1.ds)
	}
}

func TestAnswerCheckRejectsTamperedRow(t *testing.T) {
	w, err := buildWorkload("high-cold", 3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	q := w.lists[0][0][0]
	refs, err := computeReferences(w.ds, []string{q}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := eva.Open(eva.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.LoadDataset("video", w.ds); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() == 0 {
		t.Fatal("query returned no rows; nothing to tamper with")
	}
	if why := checkAnswer(refs, q, digest(res.Rows)); why != "" {
		t.Fatalf("EVA answer rejected: %s", why)
	}
	tampered := types.NewBatch(res.Rows.Schema())
	for r := 0; r < res.Rows.Len(); r++ {
		row := res.Rows.Row(r)
		if r == res.Rows.Len()/2 {
			row[0] = types.NewInt(row[0].Int() + 1)
		}
		tampered.MustAppendRow(row...)
	}
	if why := checkAnswer(refs, q, digest(tampered)); why == "" {
		t.Fatal("a tampered row passed the answer check")
	}
	st := &runState{refs: refs}
	st.check(&passStats{outcomes: []queryOutcome{{sql: q, rows: tampered}, {sql: q, rows: res.Rows}}})
	if st.attempted != 2 || st.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", st.attempted, st.failed)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(s metricSpec) {
		if !nameRE.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q invalid or repeated", s.Name)
		}
		seen[s.Name] = true
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q invalid", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
	}
	var largest float64
	for _, s := range endToEnd {
		check(s)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		largest = max(largest, s.Bound)
	}
	for _, s := range perLayer {
		check(s)
		if s.Bound != 0 {
			t.Errorf("%s: per-layer metric has a bound", s.Name)
		}
	}
	if s, ok := findSpec(endToEnd, "setup_s"); !ok || s.Unit != "s" || s.Better != "lower" || s.Bound != largest {
		t.Errorf("setup_s must be listed in s, lower, with the largest bound: %+v", s)
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadSpecs {
		check(metricSpec{Name: w.Name, Unit: "x", Better: "lower"})
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
}

func findSpec(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	want, err := encodeConfig(benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with --emit-config:\n%s", want)
	}
}

// TestWorkloadsTinyScale runs every listed workload and
// explore-jackson, traced and not, at a tiny scale: every answer must
// match and every metric appear.
func TestWorkloadsTinyScale(t *testing.T) {
	cache := t.TempDir()
	for _, name := range append(workloadNames(), "explore-jackson") {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				st, err := run(options{workload: name, seed: 5, scale: 0.02, trace: trace, setupReps: 2,
					workDir: filepath.Join(t.TempDir(), "work"), cacheDir: cache,
					spansPath: filepath.Join(t.TempDir(), "spans.json")})
				if err != nil {
					t.Fatal(err)
				}
				if st.failed != 0 || st.attempted == 0 {
					t.Fatalf("trace=%t: %d of %d queries failed: %v", trace, st.failed, st.attempted, st.failures)
				}
				specs, values := endToEnd, endToEndMetrics(st)
				if trace {
					specs, values = perLayer, perLayerMetrics(st)
				}
				for _, s := range specs {
					m, ok := values[s.Name]
					if !ok {
						t.Errorf("trace=%t: metric %s missing", trace, s.Name)
					}
					if !trace && m.value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", s.Name, m.value)
					}
				}
				if len(values) != len(specs) {
					t.Errorf("trace=%t: %d metrics computed, %d listed", trace, len(values), len(specs))
				}
			}
		})
	}
}

func TestParseAnalyze(t *testing.T) {
	text := "Project(id AS id)  (rows=3 batches=1 wall=10ms)\n" +
		"  Filter(label = 'car')  (rows=3 batches=1 wall=9ms)\n" +
		"    CrossApply(FasterRCNNResnet50, key=[id])  (rows=5 batches=1 wall=8ms)\n" +
		"      Scan(video, id ∈ [0, 10))  (rows=10 batches=1 wall=500µs)\n" +
		"  Sort(id)  (rows=3 batches=1 wall=0s)\n"
	ops, err := parseAnalyze(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []operator{
		{class: "project", depth: 0, parent: -1, rows: 3, wall: 10e6},
		{class: "filter", depth: 1, parent: 0, rows: 3, wall: 9e6},
		{class: "crossapply", depth: 2, parent: 1, rows: 5, wall: 8e6},
		{class: "scan", depth: 3, parent: 2, rows: 10, wall: 500e3},
		{class: "other", depth: 1, parent: 0, rows: 3, wall: 0},
	}
	if len(ops) != len(want) {
		t.Fatalf("%d operators, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("operator %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
	if _, err := parseAnalyze("Scan(video)\n"); err == nil {
		t.Error("a line without statistics parsed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); p != 9 {
		t.Fatalf("p90 = %v", p)
	}
}

func TestJudge(t *testing.T) {
	spec := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	side := func(base float64, step float64) []pairable {
		var out []pairable
		for i := 0; i < 10; i++ {
			out = append(out, pairable{seed: int64(i), value: base + step*float64(i%3)})
		}
		return out
	}
	cases := []struct {
		change []pairable
		want   string
	}{
		{side(0.8, 0.01), "improved"},
		{side(1.2, 0.01), "worse"},
		{side(1.0, 0.01), "within-bound"},
		{side(0.7, 0.3), "unresolved"},
	}
	for _, tc := range cases {
		if got := judge(spec, side(1.0, 0.01), tc.change).outcome; got != tc.want {
			t.Errorf("verdict %s, want %s", got, tc.want)
		}
	}
}

package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"eva"
	"eva/internal/parser"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the workload (tests run at a tiny scale).
	scale float64
	// workDir holds the run's view directories; cacheDir holds the
	// reference answers shared between runs.
	workDir, cacheDir string
	// spansPath receives the traced run's spans.
	spansPath string
	// setupReps is the number of set-ups measured before the passes,
	// on top of each pass's own.
	setupReps int
}

// executor is what a client sends its statements to: the System for a
// single client, a Session each for several.
type executor interface {
	Exec(sql string) (*eva.Result, error)
	ExecStmt(stmt parser.Statement) (*eva.Result, error)
}

// queryOutcome is one query's answer, checked after the pass so that
// digesting stays out of the timed phase.
type queryOutcome struct {
	sql string
	// rows is the full result of an untraced query; a traced query
	// runs as EXPLAIN ANALYZE and leaves only its root row count.
	rows    *eva.Batch
	rootRow int
	report  eva.OptimizerReport
	err     error
}

// passStats is one pass over one of the workload's query lists from a
// fresh System.
type passStats struct {
	list      int
	traced    bool
	wall, cpu time.Duration
	lat       []time.Duration
	// outcomes are dropped once checked; queries and the predicate
	// sizes below are what the metrics keep of them.
	outcomes  []queryOutcome
	queries   int
	unionMax  int
	diffSum   int
	diffN     int
	sim       eva.Breakdown
	viewBytes int64
	viewRows  int
	alloc     uint64
	mallocs   uint64
	gcs       uint32
	udf       map[string]eva.UDFStats
	hitPct    float64
	pool      eva.PoolStats
}

// runState is everything one run measured.
type runState struct {
	refs   map[string]answer
	setups []time.Duration
	opens  []time.Duration
	passes []passStats
	rec    *recorder
	// attempted and failed count queries; failures describes each.
	attempted, failed int
	failures          []string
}

// run executes one benchmark run: reference answers and priming are
// untimed, then set-ups and passes repeat until opts.seconds elapse.
// Passes take the query lists in turn and stop after a whole round, so
// every list runs equally often.
func run(opts options) (*runState, error) {
	w, err := buildWorkload(opts.workload, opts.seed, opts.scale)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(opts.workDir); err != nil {
		return nil, fmt.Errorf("clean work dir: %w", err)
	}
	defer os.RemoveAll(opts.workDir)
	st := &runState{rec: newRecorder()}
	if st.refs, err = references(w.ds, allQueries(w), opts.cacheDir, opts.workDir); err != nil {
		return nil, err
	}
	primed := filepath.Join(opts.workDir, "primed")
	if err := prime(w, primed); err != nil {
		return nil, err
	}
	passDir := filepath.Join(opts.workDir, "pass")
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for i := 0; i < opts.setupReps; i++ {
		sys, _, err := st.setUp(w, primed, passDir, nil)
		if err != nil {
			return nil, err
		}
		if err := closeSystem(sys, passDir); err != nil {
			return nil, err
		}
	}
	for i := 0; ; i++ {
		list := i % len(w.lists)
		if err := st.pass(w, list, primed, passDir, false); err != nil {
			return nil, err
		}
		if opts.trace {
			if err := st.pass(w, list, primed, passDir, true); err != nil {
				return nil, err
			}
		}
		if list == len(w.lists)-1 && !time.Now().Before(deadline) {
			break
		}
	}
	if opts.trace && opts.spansPath != "" {
		if err := st.rec.write(opts.spansPath); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func allQueries(w workload) []string {
	var out []string
	for _, clients := range w.lists {
		for _, c := range clients {
			out = append(out, c...)
		}
	}
	return out
}

// prime prepares the directory every pass starts from, untimed: the
// video's on-disk segments, which the engine renders from the
// synthetic world on first touch, and for a primed workload the views
// of one run of its queries.
func prime(w workload, dir string) error {
	sys, err := eva.Open(eva.Config{Mode: eva.ModeEVA, Dir: dir})
	if err != nil {
		return fmt.Errorf("open priming system: %w", err)
	}
	defer sys.Close()
	if err := sys.LoadDataset("video", w.ds); err != nil {
		return fmt.Errorf("load priming dataset: %w", err)
	}
	queries := []string{"SELECT id FROM video"}
	if w.primed {
		queries = allQueries(w)
	}
	for _, q := range queries {
		if _, err := sys.Exec(q); err != nil {
			return fmt.Errorf("priming %q: %w", q, err)
		}
	}
	return sys.Close()
}

// setUp opens a System on a fresh copy of primed, loads the dataset
// and opens one session per client, timing it all but the copy.
func (st *runState) setUp(w workload, primed, dir string, rec *recorder) (*eva.System, []executor, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, fmt.Errorf("clean pass dir: %w", err)
	}
	if err := copyDir(primed, dir); err != nil {
		return nil, nil, err
	}
	runtime.GC() // start every set-up from the same heap state
	span := rec.begin("setup", 0, -1)
	start := time.Now()
	openSpan := rec.begin("storage.open", span, -1)
	sys, err := eva.Open(eva.Config{Mode: eva.ModeEVA, Dir: dir, MaxConcurrent: w.maxConcurrent})
	open := time.Since(start)
	rec.end(openSpan)
	if err != nil {
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	if err := sys.LoadDataset("video", w.ds); err != nil {
		_ = closeSystem(sys, dir) // the load error is the one to report
		return nil, nil, fmt.Errorf("load dataset: %w", err)
	}
	var execs []executor
	if clients := len(w.lists[0]); clients == 1 {
		execs = []executor{sys}
	} else {
		for range clients {
			execs = append(execs, sys.NewSession())
		}
	}
	setup := time.Since(start)
	rec.end(span)
	st.setups = append(st.setups, setup)
	st.opens = append(st.opens, open)
	return sys, execs, nil
}

func closeSystem(sys *eva.System, dir string) error {
	if err := sys.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("clean pass dir: %w", err)
	}
	return nil
}

// pass runs every client's queries of one list once against a freshly
// set-up System and checks the answers. Traced passes record spans;
// untraced ones time only the statements.
func (st *runState) pass(w workload, list int, primed, dir string, traced bool) error {
	var rec *recorder
	if traced {
		rec = st.rec
		rec.pass++
	}
	sys, execs, err := st.setUp(w, primed, dir, rec)
	if err != nil {
		return err
	}
	p := passStats{list: list, traced: traced}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	clients := w.lists[list]
	perClient := make([][]clientResult, len(clients))
	var wg sync.WaitGroup
	firstID := 0
	for i, queries := range clients {
		wg.Add(1)
		go func(i, firstID int) {
			defer wg.Done()
			perClient[i] = runClient(execs[i], queries, rec, firstID, len(clients) > 1)
		}(i, firstID)
		firstID += len(queries)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcs = m1.NumGC - m0.NumGC
	for _, c := range perClient {
		for _, r := range c {
			p.lat = append(p.lat, r.lat)
			p.outcomes = append(p.outcomes, r.queryOutcome)
		}
	}
	p.sim = sys.SimulatedBreakdown()
	p.viewBytes = sys.ViewFootprint()
	for _, n := range sys.ViewRows() {
		p.viewRows += n
	}
	p.udf = sys.UDFCounters()
	p.hitPct = sys.HitPercentage()
	p.pool = sys.PoolStats()
	if err := closeSystem(sys, dir); err != nil {
		return err
	}
	st.check(&p)
	st.passes = append(st.passes, p)
	return nil
}

type clientResult struct {
	queryOutcome
	lat time.Duration
}

// runClient sends queries one at a time, each after the previous
// answer (a closed loop).
func runClient(ex executor, queries []string, rec *recorder, firstID int, session bool) []clientResult {
	out := make([]clientResult, 0, len(queries))
	for i, q := range queries {
		start := time.Now()
		var o queryOutcome
		if rec == nil {
			o = plainQuery(ex, q)
		} else {
			o = tracedQuery(ex, q, rec, firstID+i, session)
		}
		out = append(out, clientResult{queryOutcome: o, lat: time.Since(start)})
	}
	return out
}

func plainQuery(ex executor, q string) queryOutcome {
	res, err := ex.Exec(q)
	if err != nil {
		return queryOutcome{sql: q, err: err}
	}
	return queryOutcome{sql: q, rows: res.Rows, report: res.Report}
}

// check compares every answer of the pass with the reference, keeps
// the predicate sizes of the optimizer reports, then drops the
// outcomes: a heap that grew pass by pass would slow the garbage
// collector, so later passes would time the benchmark's own state.
func (st *runState) check(p *passStats) {
	for i := range p.outcomes {
		o := &p.outcomes[i]
		st.attempted++
		p.queries++
		for _, pi := range o.report.Preds {
			p.unionMax = max(p.unionMax, pi.UnionAtoms)
			p.diffSum += pi.DiffAtoms
			p.diffN++
		}
		var why string
		switch {
		case o.err != nil:
			why = o.err.Error()
		case o.rows != nil:
			why = checkAnswer(st.refs, o.sql, digest(o.rows))
		default:
			why = checkAnswer(st.refs, o.sql, answer{Rows: o.rootRow})
		}
		if why != "" {
			st.failed++
			st.failures = append(st.failures, fmt.Sprintf("%s: %s", o.sql, why))
		}
	}
	p.outcomes = nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("copy view: %w", err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return fmt.Errorf("copy view: %w", err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy view: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("copy view: %w", err)
	}
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"eva/internal/parser"
)

// span is one timed call into a layer. Query is -1 for set-up spans.
// Operator spans come from an EXPLAIN ANALYZE trace: a Volcano
// operator's time is interleaved with its parent's, so such a span
// starts with its statement and lasts the operator's inclusive time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a run's spans in memory. A nil recorder records
// nothing, so untraced code paths call it unconditionally.
type recorder struct {
	t0   time.Time
	pass int // the traced pass spans belong to; set between passes

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, query int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Pass: r.pass, Query: query, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// addOperators records an EXPLAIN ANALYZE trace as child spans of the
// statement span parent.
func (r *recorder) addOperators(parent, query int, ops []operator) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[parent-1].Start
	ids := make([]int, len(ops))
	for i, op := range ops {
		p := parent
		if op.parent >= 0 {
			p = ids[op.parent]
		}
		ids[i] = len(r.spans) + 1
		r.spans = append(r.spans, span{ID: ids[i], Parent: p, Pass: r.pass, Query: query,
			Name: "exec." + op.class, Start: start, End: start + int64(op.wall), Rows: op.rows})
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write saves the spans as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// tracedQuery times one query layer by layer: parsing, planning alone
// (EXPLAIN), then execution. A single client executes through EXPLAIN
// ANALYZE, whose operator trace becomes child spans; sessions execute
// through Session.Exec, which has no operator trace.
func tracedQuery(ex executor, q string, rec *recorder, id int, session bool) queryOutcome {
	out := queryOutcome{sql: q}
	root := rec.begin("query", 0, id)
	defer rec.end(root)
	sp := rec.begin("parser.Parse", root, id)
	st, err := parser.Parse(q)
	rec.end(sp)
	if _, ok := st.(*parser.SelectStmt); err == nil && !ok {
		err = fmt.Errorf("not a SELECT")
	}
	if err != nil {
		out.err = err
		return out
	}
	// Each call gets an AST of its own, parsed outside its span.
	fresh := func() *parser.SelectStmt {
		st, _ := parser.Parse(q) // parsed above without error
		return st.(*parser.SelectStmt)
	}
	explain := &parser.ExplainStmt{Select: fresh()}
	sp = rec.begin("optimizer.Explain", root, id)
	_, err = ex.ExecStmt(explain)
	rec.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	var stmt parser.Statement = &parser.ExplainStmt{Select: fresh(), Analyze: true}
	name := "exec.ExplainAnalyze"
	if session {
		stmt, name = fresh(), "session.Exec"
	}
	sp = rec.begin(name, root, id)
	res, err := ex.ExecStmt(stmt)
	rec.end(sp)
	if err != nil {
		out.err = err
		return out
	}
	out.report = res.Report
	if session {
		out.rows = res.Rows
		return out
	}
	ops, err := parseAnalyze(res.PlanText)
	if err != nil {
		out.err = err
		return out
	}
	rec.addOperators(sp, id, ops)
	out.rootRow = ops[0].rows
	return out
}

// operator is one line of an EXPLAIN ANALYZE trace.
type operator struct {
	class  string
	depth  int
	parent int // index of the enclosing operator, -1 for the root
	rows   int
	wall   time.Duration
}

// parseAnalyze reads the EXPLAIN ANALYZE tree: one operator a line,
// indented two spaces a level, ending "(rows=R batches=B wall=D)",
// where D is the operator's inclusive time.
func parseAnalyze(text string) ([]operator, error) {
	var ops []operator
	var stack []int
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		body := strings.TrimLeft(line, " ")
		depth := (len(line) - len(body)) / 2
		i := strings.LastIndex(body, "  (rows=")
		if i < 0 || !strings.HasSuffix(body, ")") {
			return nil, fmt.Errorf("EXPLAIN ANALYZE line %q: no statistics", line)
		}
		var rows, batches int
		var wall string
		if _, err := fmt.Sscanf(body[i+2:], "(rows=%d batches=%d wall=%s", &rows, &batches, &wall); err != nil {
			return nil, fmt.Errorf("EXPLAIN ANALYZE line %q: %w", line, err)
		}
		d, err := time.ParseDuration(strings.TrimSuffix(wall, ")"))
		if err != nil {
			return nil, fmt.Errorf("EXPLAIN ANALYZE line %q: %w", line, err)
		}
		for len(stack) > 0 && ops[stack[len(stack)-1]].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		op := operator{class: operatorClass(body[:i]), depth: depth, parent: -1, rows: rows, wall: d}
		if len(stack) > 0 {
			op.parent = stack[len(stack)-1]
		}
		stack = append(stack, len(ops))
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("empty EXPLAIN ANALYZE trace")
	}
	return ops, nil
}

// operatorClass maps an operator description, such as
// "ScalarApply(ColorDet, ...)", onto one of execOps or "other".
func operatorClass(describe string) string {
	name := describe
	if i := strings.IndexByte(name, '('); i >= 0 {
		name = name[:i]
	}
	name = strings.ToLower(strings.TrimSpace(name))
	for _, op := range execOps {
		if op == name {
			return op
		}
	}
	return "other"
}

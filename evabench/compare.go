package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runRecord is one run in a run set, as --record appends it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r runRecord) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

// loadRecords reads a run set's untraced runs.
func loadRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("run set: %w", err)
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("run set %s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("run set %s: %w", path, err)
	}
	return out, nil
}

// verdict applies the comparison rule to one workload × metric.
type verdict struct {
	parent, change      []float64
	pMed, pQ1, pQ3      float64
	cMed, cQ1, cQ3      float64
	wins, losses, pairs int
	outcome             string
}

// judge compares two sides of one metric. Pairs match runs of the same
// seed in record order. The change improved when it wins at least nine
// tenths of the pairs and its median beats the parent's by more than
// the parent's interquartile range; it is worse when its median is
// worse than the parent's by more than the bound. Otherwise the result
// is unresolved when either side spreads wider than the bound (unless
// every change run beats every parent run), and within the bound if
// not.
func judge(spec metricSpec, parent, change []pairable) verdict {
	v := verdict{}
	for _, p := range parent {
		v.parent = append(v.parent, p.value)
	}
	for _, c := range change {
		v.change = append(v.change, c.value)
	}
	v.pMed, v.cMed = median(v.parent), median(v.change)
	v.pQ1, v.pQ3 = quartiles(v.parent)
	v.cQ1, v.cQ3 = quartiles(v.change)
	better := func(a, b float64) bool { // a better than b
		if spec.Better == "higher" {
			return a > b
		}
		return a < b
	}
	used := make([]bool, len(change))
	for _, p := range parent {
		for j, c := range change {
			if used[j] || c.seed != p.seed {
				continue
			}
			used[j] = true
			v.pairs++
			switch {
			case better(c.value, p.value):
				v.wins++
			case better(p.value, c.value):
				v.losses++
			}
			break
		}
	}
	worseBy := ratio(v.cMed-v.pMed, v.pMed)
	if spec.Better == "higher" {
		worseBy = -worseBy
	}
	spread := max(ratio(v.pQ3-v.pQ1, v.pMed), ratio(v.cQ3-v.cQ1, v.cMed))
	allBetter := len(v.parent) > 0 && len(v.change) > 0
	for _, c := range v.change {
		for _, p := range v.parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && better(v.cMed, v.pMed) && math.Abs(v.cMed-v.pMed) > v.pQ3-v.pQ1:
		v.outcome = "improved"
	case worseBy > spec.Bound:
		v.outcome = "worse"
	case spread > spec.Bound && !allBetter:
		v.outcome = "unresolved"
	default:
		v.outcome = "within-bound"
	}
	return v
}

type pairable struct {
	seed  int64
	value float64
}

// runCompare prints, for each workload × end-to-end metric, both
// sides' medians and quartiles, pair wins and a verdict, and flags any
// rise in the share of failed queries.
func runCompare(w io.Writer, parentPath, changePath string) error {
	parent, err := loadRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := loadRecords(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-14s %28s %28s %7s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, ws := range workloadSpecs {
		p, c := forWorkload(parent, ws.Name), forWorkload(change, ws.Name)
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		for _, spec := range endToEnd {
			v := judge(spec, values(p, spec.Name), values(c, spec.Name))
			fmt.Fprintf(w, "%-16s %-14s %12.6g [%.4g, %.4g] %12.6g [%.4g, %.4g] %3d/%-3d  %s\n",
				ws.Name, spec.Name, v.pMed, v.pQ1, v.pQ3, v.cMed, v.cQ1, v.cQ3, v.wins, v.pairs, v.outcome)
		}
		pf, cf := failedFrac(p), failedFrac(c)
		flag := ""
		if cf > pf {
			flag = "  FAILED_FRAC ROSE"
		}
		fmt.Fprintf(w, "%-16s %-14s %12.6g %28.6g%s\n", ws.Name, "failed_frac", pf, cf, flag)
	}
	return nil
}

func forWorkload(rs []runRecord, name string) []runRecord {
	var out []runRecord
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []runRecord, metric string) []pairable {
	var out []pairable
	for _, r := range rs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, pairable{seed: r.Seed, value: m.Value})
		}
	}
	return out
}

func failedFrac(rs []runRecord) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

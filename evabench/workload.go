package main

import (
	"fmt"
	"math"
	"strings"

	"eva"
	"eva/internal/vbench"
	"eva/internal/vision"
)

// workload is one runnable benchmark input: a dataset and, per client,
// the SQL it sends in a closed loop (each query waits for the
// previous answer).
type workload struct {
	name string
	ds   eva.Dataset
	// lists holds the query lists a run's passes take in turn. Each
	// list holds every client's query sequence: one client runs on
	// System.Exec, several run one Session each, concurrently.
	lists [][][]string
	// primed workloads reopen a copy of a view directory that an
	// untimed run of the same queries materialised.
	primed bool
	// maxConcurrent is the only Config field set besides Mode and Dir.
	maxConcurrent int
}

// explore-jackson runs exploreLists sessions of exploreQueries
// queries each (at scale 1). A session's cost depends on its path: how
// the views' aggregated predicates fragment varies the optimizer's
// work by up to a quarter between query lists. Averaging over several
// lists keeps one seed's draw from moving the run's figures.
const (
	exploreQueries = 1000
	exploreLists   = 4
)

// buildWorkload derives a workload's inputs from the seed: the seed
// picks the synthetic world the dataset is rendered from (same size
// and density, different objects) and, for explore-jackson, the query
// lists. scale shrinks frame and query counts for tests.
func buildWorkload(name string, seed int64, scale float64) (workload, error) {
	switch name {
	case "high-cold", "high-warm", "sessions-2":
		ds := seededDataset(vision.MediumUADetrac, seed, scale)
		high := vbench.HighWorkload(ds)
		w := workload{name: name, ds: ds, lists: [][][]string{{sqlOf(high)}}}
		switch name {
		case "high-warm":
			w.primed = true
		case "sessions-2":
			// Not listed in BENCHMARK.json: concurrent sessions on this
			// dataset panic in the executor's shared-view assembly
			// (CHANGES.md). Kept runnable as the reproduction.
			var clients [][]string
			for _, perm := range vbench.Permutations[1:3] {
				p, err := vbench.Permute(high, perm)
				if err != nil {
					return workload{}, err
				}
				clients = append(clients, sqlOf(p))
			}
			w.lists, w.maxConcurrent = [][][]string{clients}, 2
		}
		return w, nil
	case "explore-jackson":
		ds := seededDataset(vision.Jackson, seed, scale)
		n := int(exploreQueries * scale)
		if n < 20 {
			n = 20
		}
		w := workload{name: name, ds: ds}
		r := newRNG(uint64(seed))
		for range exploreLists {
			w.lists = append(w.lists, [][]string{exploreSQL(int64(r.next()), n, ds.Frames)})
		}
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadSpecs {
		out = append(out, w.Name)
	}
	return out
}

// seededDataset renders base's statistics from a world chosen by seed.
func seededDataset(base eva.Dataset, seed int64, scale float64) eva.Dataset {
	ds := base
	ds.Seed = newRNG(uint64(seed) ^ base.Seed).next()
	if scale < 1 {
		ds.Frames = int(float64(ds.Frames) * scale)
		if ds.Frames < 100 {
			ds.Frames = 100
		}
	}
	return ds
}

func sqlOf(w vbench.Workload) []string {
	out := make([]string, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = q.SQL
	}
	return out
}

// exploreSQL generates n refinement queries over a video of the given
// length. Each query zooms in on, zooms out of, or shifts the previous
// query's id window, with an optional area threshold and a random
// CarType or ColorDet constant. A session's scan work should vary
// little from seed to seed, so window widths are drawn independently
// (log-uniform between 1/28 and 1/5 of the video; a narrower draw
// zooms in inside the old window, a wider one zooms out around it),
// shifts of up to three widths mix the window over the whole video
// quickly, and area thresholds take one of three values.
func exploreSQL(seed int64, n, frames int) []string {
	r := newRNG(uint64(seed))
	minW, maxW := float64(frames)/28, float64(frames)/5
	width := int(minW)
	lo := r.intn(frames - width)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if r.float() < 1.0/3 { // shift by a quarter of the width to three widths
			d := int(float64(width) * (0.25 + 2.75*r.float()))
			if r.float() < 0.5 {
				d = -d
			}
			lo += d
		} else {
			nw := int(minW * math.Pow(maxW/minW, r.float()))
			if nw <= width { // zoom in
				lo += r.intn(width - nw + 1)
			} else { // zoom out
				lo -= r.intn(nw - width + 1)
			}
			width = nw
		}
		lo = min(max(lo, 0), frames-width)
		var sb strings.Builder
		fmt.Fprintf(&sb, "SELECT id, bbox FROM video CROSS APPLY FasterRCNNResnet50(frame) WHERE id >= %d AND id < %d AND label = 'car'", lo, lo+width)
		if r.float() < 0.5 {
			fmt.Fprintf(&sb, " AND area > %.1f", 0.1*float64(1+r.intn(3)))
		}
		if r.float() < 0.5 {
			fmt.Fprintf(&sb, " AND CarType(frame, bbox) = '%s'", vision.VehicleTypes[r.intn(len(vision.VehicleTypes))])
		} else {
			fmt.Fprintf(&sb, " AND ColorDet(frame, bbox) = '%s'", vision.Colors[r.intn(len(vision.Colors))])
		}
		out = append(out, sb.String())
	}
	return out
}

// rng is splitmix64: tiny, and stable across Go releases, so a seed
// names the same inputs forever.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n); n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

package eva_test

// The allocation regression gate on the pooled hot path (DESIGN.md
// §13): the warm scan→filter→apply pipeline — apply served entirely
// from a materialized view, batches recycled through the engine's
// BatchPool — must perform ~zero heap allocations per row. The gate
// measures a *marginal* rate with testing.AllocsPerRun at two scan
// lengths, so per-query overhead (parse, optimize, result assembly)
// cancels and only the per-row cost is asserted. A second test pins
// the committed BENCH_alloc.json baseline to the same threshold, so a
// regressed baseline cannot be committed either.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"eva"
	"eva/internal/vbench"
)

const (
	allocShortFrames = 512
	allocLongFrames  = 2048
)

func allocGateSetup(t *testing.T) *eva.System {
	t.Helper()
	sys, err := eva.Open(eva.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.Exec(`LOAD VIDEO 'jackson' INTO video`); err != nil {
		t.Fatal(err)
	}
	_, err = sys.Exec(`CREATE UDF AllocNet
		INPUT  = (frame NDARRAY UINT8(3, ANYDIM, ANYDIM))
		OUTPUT = (allocnet_out BOOLEAN)
		IMPL   = 'bench:parity'
		LOGICAL_TYPE = AllocNet
		PROPERTIES = ('COST_MS' = '1')`)
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterScalarImpl("AllocNet", func(args []eva.Datum) (eva.Datum, error) {
		return eva.NewBool(len(args[0].Bytes())%2 == 0), nil
	})
	return sys
}

func allocGateQuery(frames int) string {
	return fmt.Sprintf(`SELECT id FROM video WHERE id < %d AND AllocNet(frame) = TRUE`, frames)
}

// warmAllocsPerRun returns the average allocations of one warm run of
// the query, after a cold run has materialized the view and a warm-up
// run has let pooled capacities reach steady state.
func warmAllocsPerRun(t *testing.T, sys *eva.System, query string) float64 {
	t.Helper()
	for i := 0; i < 2; i++ {
		res, err := sys.Exec(query)
		if err != nil {
			t.Fatal(err)
		}
		sys.Recycle(res.Rows)
	}
	var runErr error
	allocs := testing.AllocsPerRun(20, func() {
		res, err := sys.Exec(query)
		if err != nil {
			runErr = err
			return
		}
		sys.Recycle(res.Rows)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return allocs
}

// TestWarmPathAllocsPerRow is the live gate: marginal allocations per
// row on the warm view-served path must stay under the same threshold
// the committed baseline is held to.
func TestWarmPathAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	sys := allocGateSetup(t)
	short := warmAllocsPerRun(t, sys, allocGateQuery(allocShortFrames))
	long := warmAllocsPerRun(t, sys, allocGateQuery(allocLongFrames))
	// Re-measure short after long so both queries' pooled capacities
	// are steady; keep the smaller sample.
	if again := warmAllocsPerRun(t, sys, allocGateQuery(allocShortFrames)); again < short {
		short = again
	}
	perRow := (long - short) / float64(allocLongFrames-allocShortFrames)
	t.Logf("warm allocs/run: short=%.1f long=%.1f marginal=%.4f/row", short, long, perRow)
	if perRow > vbench.WarmAllocGate {
		t.Errorf("warm view-served path allocates %.4f/row, gate %.2f", perRow, vbench.WarmAllocGate)
	}
	st := sys.PoolStats()
	if st.Hits == 0 || st.Puts == 0 {
		t.Errorf("pool not engaged on the warm path: %+v", st)
	}
}

// Cold-path gate: scan lengths of the detector→CarType query whose
// materialising run is measured.
const (
	coldShortFrames = 128
	coldLongFrames  = 512
)

func coldGateQuery(frames int) string {
	return fmt.Sprintf(`SELECT id, bbox FROM video CROSS APPLY FasterRCNNResnet50(frame)
		WHERE id < %d AND label = 'car' AND CarType(frame, bbox) = 'Nissan'`, frames)
}

// coldAllocs runs the query once on a fresh System, so every UDF
// result is evaluated and materialized, and returns the heap
// allocations of that run with the number of view rows it stored. The
// smallest of three runs is kept: background work can only add.
func coldAllocs(t *testing.T, frames int) (allocs float64, viewRows int) {
	t.Helper()
	allocs = -1
	for i := 0; i < 3; i++ {
		sys, err := eva.Open(eva.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Exec(`LOAD VIDEO 'medium-ua-detrac' INTO video`); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := sys.Exec(coldGateQuery(frames))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		sys.Recycle(res.Rows)
		n := float64(after.Mallocs - before.Mallocs)
		if allocs < 0 || n < allocs {
			allocs = n
		}
		viewRows = 0
		for _, rows := range sys.ViewRows() {
			viewRows += rows
		}
		sys.Close()
	}
	return allocs, viewRows
}

// TestColdPathAllocsPerRow is the cold-path gate: marginal allocations
// per materialized view row on the first run of a detector→CarType
// query — detection, classification and the appends into both views —
// must stay under vbench.ColdAllocGate. As in the warm gate, two scan
// lengths cancel the per-query overhead.
func TestColdPathAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	short, shortRows := coldAllocs(t, coldShortFrames)
	long, longRows := coldAllocs(t, coldLongFrames)
	if longRows <= shortRows {
		t.Fatalf("long query materialized %d view rows, short %d", longRows, shortRows)
	}
	perRow := (long - short) / float64(longRows-shortRows)
	t.Logf("cold allocs/run: short=%.0f (%d view rows) long=%.0f (%d view rows) marginal=%.2f/row",
		short, shortRows, long, longRows, perRow)
	if perRow > vbench.ColdAllocGate {
		t.Errorf("cold materialising path allocates %.2f/view row, gate %.1f", perRow, vbench.ColdAllocGate)
	}
}

// TestAllocBaselineCommitted pins the committed BENCH_alloc.json: the
// reuse engine's recorded rate must satisfy the gate, the pool must
// have been engaged, and the pooled/unpooled × workers matrix must be
// complete with byte-identical digests.
func TestAllocBaselineCommitted(t *testing.T) {
	data, err := os.ReadFile("BENCH_alloc.json")
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var res vbench.AllocResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	var evaCell *vbench.AllocCell
	for i := range res.Cells {
		if res.Cells[i].Mode == "eva-view-served" {
			evaCell = &res.Cells[i]
		}
	}
	if evaCell == nil {
		t.Fatal("baseline has no eva-view-served cell")
	}
	if evaCell.AllocsPerRow > vbench.WarmAllocGate {
		t.Errorf("committed baseline allocates %.4f/row, gate %.2f", evaCell.AllocsPerRow, vbench.WarmAllocGate)
	}
	if evaCell.PoolHits == 0 || evaCell.PoolPuts == 0 {
		t.Errorf("committed baseline shows pool not engaged: %+v", *evaCell)
	}
	want := map[string]bool{}
	for _, pooled := range []bool{false, true} {
		for _, w := range []int{1, 2, 8} {
			want[fmt.Sprintf("%v/%d", pooled, w)] = true
		}
	}
	for _, cell := range res.Matrix {
		delete(want, fmt.Sprintf("%v/%d", cell.Pooled, cell.Workers))
		if cell.Digest != res.Matrix[0].Digest {
			t.Errorf("matrix digest diverges at pooled=%v workers=%d", cell.Pooled, cell.Workers)
		}
	}
	if len(want) != 0 {
		t.Errorf("matrix missing cells: %v", want)
	}
}

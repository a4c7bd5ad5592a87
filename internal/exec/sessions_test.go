package exec

import (
	"testing"
	"time"

	"eva/internal/catalog"
	"eva/internal/expr"
	"eva/internal/plan"
	"eva/internal/server"
	"eva/internal/storage"
	"eva/internal/types"
	"eva/internal/vision"
)

func detectorNode(lo, hi int64) *plan.ReuseApply {
	return &plan.ReuseApply{
		Input:     scan(lo, hi),
		Args:      []expr.Expr{colx("frame")},
		Sources:   []plan.ApplySource{{UDF: vision.FasterRCNN50, ViewName: "det_view"}},
		Eval:      vision.FasterRCNN50,
		StoreView: "det_view",
		TableUDF:  true,
		Out:       catalog.DetectorSchema,
		KeyCols:   []string{"id"},
	}
}

// publishDetRows appends one synthetic detection per frame id in
// [lo, hi) to the store view, standing in for a concurrent session
// publishing its results. Reports the first failure via t.Error so it
// is safe to call off the test goroutine.
func publishDetRows(t *testing.T, v *storage.View, lo, hi int64) {
	rows := types.NewBatch(v.Schema())
	for id := lo; id < hi; id++ {
		if err := rows.AppendRow(
			types.NewInt(id),
			types.NewString("car"),
			types.NewString("0,0,10,10"),
			types.NewFloat(0.9),
			types.NewFloat(100),
		); err != nil {
			t.Error(err)
			return
		}
	}
	if _, err := v.Append(rows, nil); err != nil {
		t.Error(err)
	}
}

// TestSessionsRunPublishesEveryBatch drives the full session-mode apply
// path: the store view joins the probe set, every key is claimed before
// evaluation, and results publish at each batch boundary so a second
// run serves everything from the view.
func TestSessionsRunPublishesEveryBatch(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	ctx.Sessions = true
	ctx.BatchSize = 4
	first, err := Run(ctx, detectorNode(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	stats := ctx.Runtime.CounterSnapshot()["fasterrcnnresnet50"]
	if stats.Evaluated != 12 || stats.Reused != 0 {
		t.Fatalf("first session run stats = %+v", stats)
	}
	v := ctx.Store.View("det_view")
	if v == nil || v.ProcessedCount() != 12 {
		t.Fatalf("store view not published: %v", v)
	}
	second, err := Run(ctx, detectorNode(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	stats = ctx.Runtime.CounterSnapshot()["fasterrcnnresnet50"]
	if stats.Evaluated != 12 || stats.Reused != 12 {
		t.Fatalf("second session run stats = %+v", stats)
	}
	if first.Len() != second.Len() {
		t.Fatalf("rows differ across session reuse: %d vs %d", first.Len(), second.Len())
	}
}

// TestSessionsReprobeServesPublishedRows exercises the re-probe step in
// isolation: after a concurrent session publishes rows for a prefix of
// the batch's keys, reprobe must serve exactly those rows and leave the
// rest queued for evaluation.
func TestSessionsReprobeServesPublishedRows(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	ctx.Sessions = true
	it, err := build(ctx, detectorNode(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	a := it.(*applyIter)
	b, err := a.in.next()
	if err != nil || b == nil || b.Len() != 8 {
		t.Fatalf("input batch: %v, %v", b, err)
	}
	decisions := a.probePhase(b)
	if keys := a.unservedKeys(decisions); len(keys) != 8 {
		t.Fatalf("unserved keys = %d, want 8", len(keys))
	}
	publishDetRows(t, ctx.Store.View("det_view"), 0, 3)
	a.reprobe(b, decisions, true)
	served := 0
	for r := range decisions {
		if decisions[r].served {
			if len(decisions[r].viewRows) == 0 {
				t.Errorf("row %d served with no view rows", r)
			}
			served++
		}
	}
	if served != 3 {
		t.Errorf("reprobe served %d rows, want 3", served)
	}
	if rest := a.unservedKeys(decisions); len(rest) != 5 {
		t.Errorf("unserved after reprobe = %d, want 5", len(rest))
	}
}

// TestSessionsClaimWaitsForHolder pits claimPhase against a conflicting
// claim held by the test: the phase must wait — holding no claims of
// its own — until the holder publishes and releases, then serve the
// published rows on re-probe instead of re-evaluating them.
func TestSessionsClaimWaitsForHolder(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	ctx.Sessions = true
	it, err := build(ctx, detectorNode(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	a := it.(*applyIter)
	b, err := a.in.next()
	if err != nil || b == nil {
		t.Fatalf("input batch: %v, %v", b, err)
	}
	decisions := a.probePhase(b)
	keys := a.unservedKeys(decisions)
	v := ctx.Store.View("det_view")
	granted, _ := v.ClaimKeys(keys)
	if !granted {
		t.Fatal("claim on a fresh view not granted")
	}
	// The holder publishes and releases while claimPhase waits.
	timer := time.AfterFunc(50*time.Millisecond, func() {
		publishDetRows(t, v, 0, 4)
		v.ReleaseKeys(keys)
	})
	defer timer.Stop()
	a.claimPhase(b, decisions)
	// Every row is either served from the published rows (the holder
	// won the race to the claim table) or claimed for evaluation.
	for r := range decisions {
		if !decisions[r].served && len(a.claimed) == 0 {
			t.Fatalf("row %d neither served nor claimed", r)
		}
	}
	a.releaseClaims()
}

// TestStagedViewRowsChargeAndDegrade covers the view-staging charge
// point: a budget with room for the scan batch but not the staged view
// rows must degrade by flushing early — never aborting — while a
// generous budget holds the staging reservation to the end.
func TestStagedViewRowsChargeAndDegrade(t *testing.T) {
	// Size the budget from a measurement run: one full scan batch plus a
	// sliver, so the scan charge fits and the staging charge cannot.
	measured := testCtx(t, vision.MediumUADetrac)
	mit, err := build(measured, scan(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	var maxBatch int64
	for {
		mb, err := mit.next()
		if err != nil {
			t.Fatal(err)
		}
		if mb == nil {
			break
		}
		if sz := int64(mb.EncodedSize()); sz > maxBatch {
			maxBatch = sz
		}
	}

	ctx := testCtx(t, vision.MediumUADetrac)
	bud := server.NewMemBudget(maxBatch + 64)
	ctx.Budget = bud
	out, err := Run(ctx, detectorNode(0, 64))
	if err != nil {
		t.Fatalf("staging breach aborted instead of degrading: %v", err)
	}
	if out.Len() == 0 {
		t.Fatal("degraded apply produced no rows")
	}
	if bud.Degrades() == 0 {
		t.Error("tight budget recorded no staging degradation")
	}
	if bud.Peak() > bud.Limit() {
		t.Errorf("peak %d exceeded limit %d", bud.Peak(), bud.Limit())
	}
	if v := ctx.Store.View("det_view"); v == nil || v.Rows() == 0 {
		t.Error("early flush left no rows in the store view")
	}

	ctx2 := testCtx(t, vision.MediumUADetrac)
	bud2 := server.NewMemBudget(1 << 30)
	ctx2.Budget = bud2
	out2, err := Run(ctx2, detectorNode(0, 64))
	if err != nil || out2.Len() != out.Len() {
		t.Fatalf("funded apply rows = %v, %v (want %d)", out2, err, out.Len())
	}
	if bud2.Degrades() != 0 {
		t.Errorf("funded apply degraded %d times", bud2.Degrades())
	}
}

// TestProbeResnapshotsAfterConcurrentAppend is the regression test for
// the stale-snapshot panic under concurrent queries: the first row of
// a batch is served from the view (caching a snapshot), then another
// writer appends the rest of the batch's keys before their probes. The
// later rows' indexes lie past the cached snapshot, so the probe must
// re-snapshot instead of letting assembly index out of range.
func TestProbeResnapshotsAfterConcurrentAppend(t *testing.T) {
	ctx := testCtx(t, vision.MediumUADetrac)
	it, err := build(ctx, detectorNode(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	v := ctx.Store.View("det_view")
	publishDetRows(t, v, 0, 1)
	ctx.afterProbeRow = func(row int) {
		if row == 0 {
			publishDetRows(t, v, 1, 4)
		}
	}
	out, err := it.next()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("apply emitted %d rows, want 4", out.Len())
	}
	bbox := out.Schema().IndexOf("bbox")
	for r := 0; r < out.Len(); r++ {
		if got := out.At(r, bbox).Str(); got != "0,0,10,10" {
			t.Errorf("row %d bbox %q, want the published row", r, got)
		}
	}
	if st := ctx.Runtime.CounterSnapshot()["fasterrcnnresnet50"]; st.Evaluated != 0 || st.Reused != 4 {
		t.Errorf("stats = %+v, want every row served from the view", st)
	}
}

// TestSessionsRecheckAfterGrantedClaim is the regression test for the
// singleflight double compute: session A is parked between its probe
// (every key missing) and its claim while session B evaluates the same
// keys, publishes them and releases its claim. A's claim is then
// granted — nobody holds the keys any more — and only the re-probe
// after the grant keeps A from evaluating them a second time.
func TestSessionsRecheckAfterGrantedClaim(t *testing.T) {
	a := testCtx(t, vision.MediumUADetrac)
	a.Sessions = true
	b := *a
	a.beforeClaim = func() {
		a.beforeClaim = nil
		if _, err := Run(&b, detectorNode(0, 4)); err != nil {
			t.Error(err)
		}
	}
	out, err := Run(a, detectorNode(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Run(&b, detectorNode(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != solo.Len() {
		t.Errorf("parked session emitted %d rows, solo run %d", out.Len(), solo.Len())
	}
	if st := a.Runtime.CounterSnapshot()["fasterrcnnresnet50"]; st.Evaluated != 4 {
		t.Errorf("two sessions evaluated %d invocations of 4 keys — double compute", st.Evaluated)
	}
}

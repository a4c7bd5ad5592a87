package types

import (
	"strings"
	"testing"
)

func testSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(Column{"id", KindInt}, Column{"label", KindString}, Column{"area", KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if got := s.IndexOf("LABEL"); got != 1 {
		t.Errorf("IndexOf(LABEL) = %d, want 1 (case-insensitive)", got)
	}
	if s.IndexOf("missing") != -1 {
		t.Error("IndexOf(missing) should be -1")
	}
	if !s.Has("id") || s.Has("nope") {
		t.Error("Has misbehaves")
	}
	if s.KindOf("area") != KindFloat || s.KindOf("nope") != KindNull {
		t.Error("KindOf misbehaves")
	}
	if got := s.String(); got != "(id INTEGER, label TEXT, area FLOAT)" {
		t.Errorf("String() = %q", got)
	}
}

func TestSchemaDuplicate(t *testing.T) {
	if _, err := NewSchema(Column{"a", KindInt}, Column{"A", KindFloat}); err == nil {
		t.Fatal("duplicate column names (case-insensitive) should error")
	}
}

func TestSchemaConcatDisambiguates(t *testing.T) {
	s := MustSchema(Column{"id", KindInt})
	out := s.Concat(MustSchema(Column{"id", KindInt}, Column{"bbox", KindString}))
	if len(out) != 3 {
		t.Fatalf("concat width = %d, want 3", len(out))
	}
	if out[1].Name != "id_r" {
		t.Errorf("duplicate column renamed to %q, want id_r", out[1].Name)
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema(t)
	p, err := s.Project([]string{"area", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if p[0].Name != "area" || p[1].Name != "id" {
		t.Errorf("project order wrong: %s", p)
	}
	if _, err := s.Project([]string{"ghost"}); err == nil {
		t.Error("project unknown column should error")
	}
}

func TestSchemaEqualClone(t *testing.T) {
	s := testSchema(t)
	c := s.Clone()
	if !s.Equal(c) {
		t.Error("clone not equal")
	}
	c[0].Name = "other"
	if s.Equal(c) {
		t.Error("equal after mutation")
	}
	if s.Equal(s[:2]) {
		t.Error("prefix should not be equal")
	}
	names := s.Names()
	if len(names) != 3 || names[2] != "area" {
		t.Errorf("Names = %v", names)
	}
}

func TestBatchAppendAndAccess(t *testing.T) {
	b := NewBatch(testSchema(t))
	if err := b.AppendRow(NewInt(1), NewString("car"), NewFloat(0.3)); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow(NewInt(2), Null, NewFloat(0.1)); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if got := b.At(0, 1).Str(); got != "car" {
		t.Errorf("At(0,1) = %q", got)
	}
	if !b.At(1, 1).IsNull() {
		t.Error("null not preserved")
	}
	row := b.Row(1)
	if row[0].Int() != 2 {
		t.Errorf("Row(1)[0] = %v", row[0])
	}
	if col := b.ColByName("area"); len(col) != 2 || col[0].Float() != 0.3 {
		t.Errorf("ColByName(area) = %v", col)
	}
	if b.ColByName("ghost") != nil {
		t.Error("ColByName(ghost) should be nil")
	}
}

func TestBatchAppendErrors(t *testing.T) {
	b := NewBatch(testSchema(t))
	if err := b.AppendRow(NewInt(1)); err == nil {
		t.Error("short row should error")
	}
	if err := b.AppendRow(NewString("x"), NewString("car"), NewFloat(0)); err == nil {
		t.Error("kind mismatch should error")
	}
	// Numeric coercion is allowed.
	if err := b.AppendRow(NewFloat(1), NewString("car"), NewInt(0)); err != nil {
		t.Errorf("numeric coercion rejected: %v", err)
	}
}

func TestBatchFilterProjectSlice(t *testing.T) {
	b := NewBatchCapacity(testSchema(t), 4)
	for i := 0; i < 4; i++ {
		b.MustAppendRow(NewInt(int64(i)), NewString("car"), NewFloat(float64(i)/10))
	}
	f := b.Filter([]bool{true, false, true, false})
	if f.Len() != 2 || f.At(1, 0).Int() != 2 {
		t.Errorf("filter wrong: %v", f)
	}
	p, err := b.Project([]string{"area"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 || len(p.Schema()) != 1 {
		t.Errorf("project wrong: %v", p)
	}
	s := b.Slice(1, 3)
	if s.Len() != 2 || s.At(0, 0).Int() != 1 {
		t.Errorf("slice wrong: %v", s)
	}
}

func TestBatchAppendBatch(t *testing.T) {
	a := NewBatch(testSchema(t))
	a.MustAppendRow(NewInt(1), NewString("car"), NewFloat(0.5))
	b := NewBatch(testSchema(t))
	b.MustAppendRow(NewInt(2), NewString("bus"), NewFloat(0.7))
	if err := a.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 || a.At(1, 1).Str() != "bus" {
		t.Errorf("append batch wrong: %v", a)
	}
	other := NewBatch(MustSchema(Column{"x", KindInt}))
	if err := a.AppendBatch(other); err == nil {
		t.Error("schema mismatch should error")
	}
}

func TestBatchAppendRowsAndGrow(t *testing.T) {
	src := NewBatch(testSchema(t))
	for i := 0; i < 5; i++ {
		src.MustAppendRow(NewInt(int64(i)), NewString("car"), NewFloat(float64(i)/2))
	}
	dst := NewBatch(testSchema(t))
	if err := dst.AppendRows(src, []int{4, 1, 3}); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 || dst.At(0, 0).Int() != 4 || dst.At(1, 0).Int() != 1 || dst.At(2, 2).Float() != 1.5 {
		t.Errorf("append rows wrong: %v", dst)
	}
	if err := dst.AppendRows(NewBatch(MustSchema(Column{"x", KindInt})), nil); err == nil {
		t.Error("schema mismatch should error")
	}
	// Growth at least doubles, so a view appended to row by row
	// reallocates a logarithmic number of times.
	grows, last := 0, cap(dst.Col(0))
	for i := 0; i < 4096; i++ {
		dst.Grow(1)
		dst.MustAppendRow(NewInt(int64(i)), NewString("bus"), NewFloat(0))
		if c := cap(dst.Col(0)); c != last {
			if c < 2*last {
				t.Fatalf("capacity grew %d → %d, want at least double", last, c)
			}
			grows, last = grows+1, c
		}
	}
	if grows > 12 {
		t.Errorf("%d reallocations for 4096 rows", grows)
	}
	if dst.Len() != 4099 || dst.At(3, 1).Str() != "bus" || dst.At(0, 0).Int() != 4 {
		t.Errorf("rows lost across growth: len %d", dst.Len())
	}
}

func TestBatchEncodedSizeAndString(t *testing.T) {
	b := NewBatch(testSchema(t))
	b.MustAppendRow(NewInt(1), NewString("car"), NewFloat(0.5))
	want := NewInt(1).EncodedSize() + NewString("car").EncodedSize() + NewFloat(0.5).EncodedSize()
	if got := b.EncodedSize(); got != want {
		t.Errorf("EncodedSize = %d, want %d", got, want)
	}
	for i := 0; i < 15; i++ {
		b.MustAppendRow(NewInt(int64(i)), NewString("car"), NewFloat(0.5))
	}
	s := b.String()
	if !strings.Contains(s, "more") {
		t.Errorf("String should elide rows: %q", s)
	}
}

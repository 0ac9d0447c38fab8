package core

import (
	"errors"
	"strings"
	"testing"
)

func TestPlanValidate(t *testing.T) {
	t.Run("nil root", func(t *testing.T) {
		if err := (Plan{Name: "empty"}).Validate(); !errors.Is(err, ErrNilPlan) {
			t.Errorf("got %v, want ErrNilPlan", err)
		}
	})
	t.Run("negative work", func(t *testing.T) {
		pl := Plan{Name: "bad", Root: NewNode("x", -1, 0)}
		if err := pl.Validate(); !errors.Is(err, ErrNegativeWork) {
			t.Errorf("got %v, want ErrNegativeWork", err)
		}
	})
	t.Run("negative output cost", func(t *testing.T) {
		pl := Plan{Name: "bad", Root: NewNode("x", 1, -0.5)}
		if err := pl.Validate(); !errors.Is(err, ErrNegativeWork) {
			t.Errorf("got %v, want ErrNegativeWork", err)
		}
	})
	t.Run("repeated node", func(t *testing.T) {
		shared := NewNode("leaf", 1, 1)
		pl := Plan{Name: "dag", Root: NewNode("join", 1, 1, shared, shared)}
		if err := pl.Validate(); !errors.Is(err, ErrNodeRepeated) {
			t.Errorf("got %v, want ErrNodeRepeated", err)
		}
	})
	t.Run("ok", func(t *testing.T) {
		if err := Fig3Plan().Validate(); err != nil {
			t.Errorf("Fig3Plan invalid: %v", err)
		}
	})
}

func TestPlanNodesAndFind(t *testing.T) {
	pl := Fig3Plan()
	nodes := pl.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("Nodes() returned %d nodes, want 3", len(nodes))
	}
	// Pre-order from the root.
	wantOrder := []string{"top", "pivot", "bottom"}
	for i, nd := range nodes {
		if nd.Name != wantOrder[i] {
			t.Errorf("Nodes()[%d] = %q, want %q", i, nd.Name, wantOrder[i])
		}
	}
	if pl.Find("pivot") == nil {
		t.Error("Find(pivot) = nil")
	}
	if pl.Find("nonexistent") != nil {
		t.Error("Find(nonexistent) != nil")
	}
}

func TestPlanTotalWork(t *testing.T) {
	pl := Fig3Plan()
	if got := pl.TotalWork(); got != 27 {
		t.Errorf("TotalWork = %g, want 27 (10 + 7 + 10)", got)
	}
}

func TestPlanString(t *testing.T) {
	s := Fig3Plan().String()
	for _, want := range []string{"fig3 synthetic", "top", "pivot", "bottom", "w=6", "s=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestNodeKindString(t *testing.T) {
	if Pipelined.String() != "pipelined" {
		t.Errorf("Pipelined.String() = %q", Pipelined.String())
	}
	if StopAndGo.String() != "stop-and-go" {
		t.Errorf("StopAndGo.String() = %q", StopAndGo.String())
	}
	if got := NodeKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestCompile(t *testing.T) {
	pl := Fig3Plan()
	q, err := Compile(pl, pl.Find("pivot"))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(q.Below) != 1 || q.Below[0] != 10 {
		t.Errorf("Below = %v, want [10]", q.Below)
	}
	if q.PivotW != 6 || q.PivotS != 1 {
		t.Errorf("pivot (w,s) = (%g,%g), want (6,1)", q.PivotW, q.PivotS)
	}
	if len(q.Above) != 1 || q.Above[0] != 10 {
		t.Errorf("Above = %v, want [10]", q.Above)
	}
}

func TestCompilePivotAtRoot(t *testing.T) {
	pl := Fig3Plan()
	q, err := Compile(pl, pl.Root)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(q.Above) != 0 {
		t.Errorf("Above = %v, want empty when pivot is the root", q.Above)
	}
	if len(q.Below) != 2 {
		t.Errorf("Below = %v, want 2 entries", q.Below)
	}
}

func TestCompilePivotAtLeaf(t *testing.T) {
	pl := Fig3Plan()
	q, err := Compile(pl, pl.Find("bottom"))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(q.Below) != 0 {
		t.Errorf("Below = %v, want empty when pivot is a leaf", q.Below)
	}
	if len(q.Above) != 2 {
		t.Errorf("Above = %v, want 2 entries", q.Above)
	}
}

func TestCompileErrors(t *testing.T) {
	pl := Fig3Plan()
	if _, err := Compile(pl, NewNode("stranger", 1, 1)); !errors.Is(err, ErrPivotNotFound) {
		t.Errorf("foreign pivot: got %v, want ErrPivotNotFound", err)
	}
	if _, err := Compile(pl, nil); !errors.Is(err, ErrPivotNotFound) {
		t.Errorf("nil pivot: got %v, want ErrPivotNotFound", err)
	}
	if _, err := Compile(Plan{Name: "empty"}, nil); !errors.Is(err, ErrNilPlan) {
		t.Errorf("empty plan: got %v, want ErrNilPlan", err)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic on invalid input")
		}
	}()
	MustCompile(Plan{Name: "empty"}, nil)
}

// Compiling the Fig3 plan and recomputing work from the Query must agree
// with the plan's own accounting.
func TestCompilePreservesTotalWork(t *testing.T) {
	pl := Fig3Plan()
	for _, pivotName := range []string{"top", "pivot", "bottom"} {
		q := MustCompile(pl, pl.Find(pivotName))
		if got, want := q.UPrime(), pl.TotalWork(); got != want {
			t.Errorf("pivot %q: UPrime = %g, want %g", pivotName, got, want)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	good := Q6Paper()
	if err := good.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := Query{Name: "neg", PivotW: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative pivot work accepted")
	}
	empty := Query{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Error("zero-work query accepted")
	}
	nan := Query{Name: "nan", PivotW: nanValue()}
	if err := nan.Validate(); err == nil {
		t.Error("NaN work accepted")
	}
	badBelow := Query{Name: "b", PivotW: 1, Below: []float64{-2}}
	if err := badBelow.Validate(); err == nil {
		t.Error("negative below work accepted")
	}
	badAbove := Query{Name: "a", PivotW: 1, Above: []float64{-2}}
	if err := badAbove.Validate(); err == nil {
		t.Error("negative above work accepted")
	}
}

func nanValue() float64 {
	z := 0.0
	return z / z
}

// A stop-and-go node keeps its coefficients and children, and the plan
// rendering marks it so, next to its pipelined input.
func TestNewStopAndGo(t *testing.T) {
	scan := NewNode("scan", 2, 1)
	sort := NewStopAndGo("sort", 3, 0.5, scan)
	if sort.Kind != StopAndGo || sort.P() != 3.5 || len(sort.Children) != 1 || sort.Children[0] != scan {
		t.Fatalf("NewStopAndGo = %+v", sort)
	}
	pl := Plan{Name: "sorted scan", Root: sort}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	want := "plan \"sorted scan\"\n  sort (w=3 s=0.5 stop-and-go)\n    scan (w=2 s=1 pipelined)\n"
	if got := pl.String(); got != want {
		t.Errorf("plan rendering = %q, want %q", got, want)
	}
}

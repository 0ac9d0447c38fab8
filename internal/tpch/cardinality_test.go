package tpch

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relop"
	"repro/internal/storage"
)

// TestCardinalityEstimatesTrackReality checks the closed-form estimates
// against the generated data: each must land within 25% of the true count,
// or the pre-sizing hints would be worse than useless.
func TestCardinalityEstimatesTrackReality(t *testing.T) {
	db := smallDB(t)
	cases := []struct {
		name   string
		est    int
		actual func() int
	}{
		{"q4-build", EstimateQ4BuildRows(db), func() int {
			return countRows(t, db.Lineitem, Q4LineitemPred())
		}},
		{"q13-build", EstimateQ13BuildRows(db), func() int {
			return countRows(t, db.Orders, Q13CommentPred())
		}},
		{"orders-window", EstimateOrdersWindowRows(db, DateQ4Start, DateQ4End), func() int {
			return countRows(t, db.Orders, Q4OrdersPred())
		}},
		{"customer-range", EstimateCustomerRangeRows(db, 1, int64(db.Customer.NumRows())/2+1), func() int {
			lo, hi := q13FamilyCustRange(db, 1)
			return countRows(t, db.Customer, relop.And{Preds: []relop.Pred{
				relop.Cmp{Op: relop.Ge, L: relop.Col("c_custkey"), R: relop.ConstInt{V: lo}},
				relop.Cmp{Op: relop.Lt, L: relop.Col("c_custkey"), R: relop.ConstInt{V: hi}},
			}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			actual := tc.actual()
			if actual == 0 {
				t.Fatal("actual count is zero; scale too small to validate")
			}
			ratio := float64(tc.est) / float64(actual)
			if ratio < 0.75 || ratio > 1.25 {
				t.Errorf("estimate %d vs actual %d (ratio %.3f), want within 25%%", tc.est, actual, ratio)
			}
		})
	}
}

// countRows runs a filtered scan and counts the surviving rows.
func countRows(t *testing.T, tbl *storage.Table, pred relop.Pred) int {
	t.Helper()
	n := 0
	sc, err := relop.NewScan(tbl, pred, nil, 0, func(b *storage.Batch) error {
		n += b.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFootprintMatchesHint validates the hint against the sealed hash
// table's own accounting: a build pre-sized by EstimateQ4BuildRows must end
// up holding within 25% of the hinted rows, and FootprintBytes must be
// positive and scale with the row count.
func TestFootprintMatchesHint(t *testing.T) {
	db := smallDB(t)
	hint := EstimateQ4BuildRows(db)
	jb, err := relop.NewJoinBuildSized(
		storage.MustSchema(storage.Column{Name: "l_orderkey", Type: storage.Int64}),
		"l_orderkey", hint)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := relop.NewScan(db.Lineitem, Q4LineitemPred(), []string{"l_orderkey"}, 0, jb.Push)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	if err := jb.Finish(); err != nil {
		t.Fatal(err)
	}
	tbl := jb.Table()
	ratio := float64(hint) / float64(tbl.Len())
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("hint %d vs built rows %d (ratio %.3f), want within 25%%", hint, tbl.Len(), ratio)
	}
	fp := tbl.FootprintBytes()
	if fp < int64(tbl.Len())*8 {
		t.Errorf("FootprintBytes = %d, want at least 8 bytes/row over %d rows", fp, tbl.Len())
	}
}

// TestFamiliesByteIdenticalWithAndWithoutHints is the pre-sizing safety
// gate: hints only change allocation behavior, never results. Every family
// variant is run on a fresh engine in both arms — hinted and NoHints — and
// both must be byte-identical to the single-threaded reference.
func TestFamiliesByteIdenticalWithAndWithoutHints(t *testing.T) {
	db := smallDB(t)
	families := []struct {
		name     string
		variants int
		hinted   func(v int) engine.QuerySpec
		nohints  func(v int) engine.QuerySpec
		ref      func(v int) (*storage.Batch, error)
	}{
		{"q1f", Q1FamilyVariants,
			func(v int) engine.QuerySpec { return Q1FamilySpec(db, 0, v) },
			func(v int) engine.QuerySpec { return Q1FamilySpecNoHints(db, 0, v) },
			func(v int) (*storage.Batch, error) { return Q1FamilyReference(db, v) }},
		{"q4f", Q4FamilyVariants,
			func(v int) engine.QuerySpec { return Q4FamilySpec(db, 0, v) },
			func(v int) engine.QuerySpec { return Q4FamilySpecNoHints(db, 0, v) },
			func(v int) (*storage.Batch, error) { return Q4FamilyReference(db, v) }},
		{"q13f", Q13FamilyVariants,
			func(v int) engine.QuerySpec { return Q13FamilySpec(db, 0, v) },
			func(v int) engine.QuerySpec { return Q13FamilySpecNoHints(db, 0, v) },
			func(v int) (*storage.Batch, error) { return Q13FamilyReference(db, v) }},
	}
	run := func(t *testing.T, spec engine.QuerySpec) string {
		e := familyEngine(t, engine.Options{Workers: 2})
		h, err := e.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return renderBatch(t, got)
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			for v := 0; v < fam.variants; v++ {
				want, err := fam.ref(v)
				if err != nil {
					t.Fatal(err)
				}
				wantStr := renderBatch(t, want)
				if got := run(t, fam.hinted(v)); got != wantStr {
					t.Errorf("variant %d: hinted result differs from reference", v)
				}
				if got := run(t, fam.nohints(v)); got != wantStr {
					t.Errorf("variant %d: NoHints result differs from reference", v)
				}
			}
		})
	}
}

// TestSelectivityConstantsMatchGenerator derives both build-side
// selectivities exactly, by enumerating every combination of the
// generator's uniform draws (gen.go), and holds the calibrated constants to
// them. A build hinted below its true size regrows its rows at its last
// page, so the constants must not undershoot.
func TestSelectivityConstantsMatchGenerator(t *testing.T) {
	// Q4: l_commitdate < l_receiptdate over every (ship, commit, receipt)
	// draw, all offsets taken from one order date.
	late, all := int64(0), int64(0)
	for s := 0; s < shipSpan; s++ {
		ship := AddDays(DateEpochStart, 1+s)
		for c := 0; c < commitSpan; c++ {
			commit := AddDays(DateEpochStart, commitMin+c)
			for r := 0; r < receiptSpan; r++ {
				if commit < AddDays(ship, 1+r) {
					late++
				}
				all++
			}
		}
	}
	if got, want := lateCommitSelectivity, new(big.Rat).SetFrac64(late, all); !ratEquals(got, want) {
		t.Errorf("lateCommitSelectivity = %v, generator gives %v = %.6f", got, want, ratFloat(want))
	}

	// Q13: the share of the special branch's comments that match the
	// pattern. Each word count is equally likely, and "special" lands on
	// each of its words equally likely; every other word is filler, which
	// must match neither substring.
	comment := storage.MustSchema(storage.Column{Name: "o_comment", Type: storage.String})
	for _, w := range commentWords {
		if containsPattern(t, comment, w) {
			t.Fatalf("filler word %q matches the special-requests pattern", w)
		}
	}
	matched := new(big.Rat)
	for n := commentMinWords; n < commentMinWords+commentWordSpan; n++ {
		for at := 0; at < n; at++ {
			words := make([]string, n)
			for i := range words {
				switch {
				case i == at:
					words[i] = "special"
				case i == at+1:
					words[i] = "requests"
				default:
					words[i] = commentWords[0]
				}
			}
			if containsPattern(t, comment, strings.Join(words, " ")) {
				matched.Add(matched, big.NewRat(1, int64(commentWordSpan*n)))
			}
		}
	}
	want := new(big.Rat).Sub(big.NewRat(1, 1), matched.Mul(matched, big.NewRat(1, specialOdds)))
	if got := nonSpecialSelectivity; !ratEquals(got, want) {
		t.Errorf("nonSpecialSelectivity = %v, generator gives %v = %.6f", got, want, ratFloat(want))
	}
}

// containsPattern reports whether Q13's special-requests pattern matches s.
func containsPattern(t *testing.T, schema storage.Schema, s string) bool {
	t.Helper()
	b := storage.NewBatch(schema, 1)
	if err := b.AppendRow(s); err != nil {
		t.Fatal(err)
	}
	sel, err := Q13CommentPred().Filter(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return len(sel) == 0 // the predicate is the NOT LIKE
}

// ratEquals reports whether x is the float64 nearest r.
func ratEquals(x float64, r *big.Rat) bool { return x == ratFloat(r) }

func ratFloat(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}

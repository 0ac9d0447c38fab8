package relop

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"repro/internal/storage"
)

// Errors reported by expression evaluation and operator plumbing.
var (
	ErrType     = errors.New("relop: type error")
	ErrFinished = errors.New("relop: operator already finished")
)

// Expr is a scalar expression evaluated over a batch, producing one value
// per input row.
type Expr interface {
	// Type returns the expression's result type under the given schema.
	Type(s storage.Schema) (storage.Type, error)
	// Eval evaluates the expression over all rows of the batch.
	Eval(b *storage.Batch) (storage.Vector, error)
	// String renders the expression for diagnostics.
	String() string
}

// ColRef references a named column.
type ColRef struct {
	// Name is the column name.
	Name string
}

// Col is shorthand for a column reference expression.
func Col(name string) ColRef { return ColRef{Name: name} }

// Type implements Expr.
func (c ColRef) Type(s storage.Schema) (storage.Type, error) {
	i, err := s.Index(c.Name)
	if err != nil {
		return 0, err
	}
	return s.Cols[i].Type, nil
}

// Eval implements Expr.
func (c ColRef) Eval(b *storage.Batch) (storage.Vector, error) {
	return b.Col(c.Name)
}

// String implements Expr.
func (c ColRef) String() string { return c.Name }

// ConstInt is an integer (or date) literal.
type ConstInt struct {
	// V is the literal value.
	V int64
}

// Type implements Expr.
func (ConstInt) Type(storage.Schema) (storage.Type, error) { return storage.Int64, nil }

// Eval implements Expr.
func (c ConstInt) Eval(b *storage.Batch) (storage.Vector, error) {
	v := storage.NewVector(storage.Int64, b.Len())
	for i := 0; i < b.Len(); i++ {
		v.AppendInt(c.V)
	}
	return v, nil
}

// String implements Expr.
func (c ConstInt) String() string { return fmt.Sprintf("%d", c.V) }

// ConstFloat is a floating-point literal.
type ConstFloat struct {
	// V is the literal value.
	V float64
}

// Type implements Expr.
func (ConstFloat) Type(storage.Schema) (storage.Type, error) { return storage.Float64, nil }

// Eval implements Expr.
func (c ConstFloat) Eval(b *storage.Batch) (storage.Vector, error) {
	v := storage.NewVector(storage.Float64, b.Len())
	for i := 0; i < b.Len(); i++ {
		v.AppendFloat(c.V)
	}
	return v, nil
}

// String implements Expr.
func (c ConstFloat) String() string { return fmt.Sprintf("%g", c.V) }

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return "?"
	}
}

// Arith is a binary arithmetic expression. Mixed int/float operands promote
// to float.
type Arith struct {
	// Op is the operator.
	Op ArithOp
	// L and R are the operands.
	L, R Expr
}

// Type implements Expr.
func (a Arith) Type(s storage.Schema) (storage.Type, error) {
	lt, err := a.L.Type(s)
	if err != nil {
		return 0, err
	}
	rt, err := a.R.Type(s)
	if err != nil {
		return 0, err
	}
	if lt == storage.String || rt == storage.String {
		return 0, fmt.Errorf("%w: arithmetic on string", ErrType)
	}
	if lt == storage.Float64 || rt == storage.Float64 {
		return storage.Float64, nil
	}
	return storage.Int64, nil
}

// Eval implements Expr. The returned vector is freshly allocated and owned by
// the caller; operators evaluate through operandOf instead, which draws
// intermediates from their own scratch.
func (a Arith) Eval(b *storage.Batch) (storage.Vector, error) {
	return evalOwned(a, b, nil)
}

// String implements Expr.
func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

func applyFloat(op ArithOp, x, y float64) float64 {
	switch op {
	case Add:
		return x + y
	case Sub:
		return x - y
	case Mul:
		return x * y
	case Div:
		return x / y
	default:
		panic(fmt.Sprintf("relop: unknown arith op %d", int(op)))
	}
}

func applyInt(op ArithOp, x, y int64) int64 {
	switch op {
	case Add:
		return x + y
	case Sub:
		return x - y
	case Mul:
		return x * y
	case Div:
		if y == 0 {
			return 0
		}
		return x / y
	default:
		panic(fmt.Sprintf("relop: unknown arith op %d", int(op)))
	}
}

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "?"
	}
}

// Pred is a predicate: given a batch and a candidate selection (row
// indices), it returns the subset of rows that satisfy it. A nil selection
// means "all rows".
type Pred interface {
	// Filter returns the surviving row indices. It may reuse sel's backing
	// array; callers must not rely on sel afterwards.
	Filter(b *storage.Batch, sel []int) ([]int, error)
	// String renders the predicate for diagnostics.
	String() string
}

// Cmp compares two scalar expressions.
type Cmp struct {
	// Op is the comparison operator.
	Op CmpOp
	// L and R are the operands.
	L, R Expr
}

// Filter implements Pred. Operands evaluate to a column, a computed vector or
// a scalar literal (never materialized), and the operator is switched on once
// per page: each operator has its own branch-free row loop over typed slices.
func (c Cmp) Filter(b *storage.Batch, sel []int) ([]int, error) {
	l, err := operandOf(c.L, b, nil)
	if err != nil {
		return nil, err
	}
	r, err := operandOf(c.R, b, nil)
	if err != nil {
		return nil, err
	}
	if (l.typ == storage.String) != (r.typ == storage.String) {
		return nil, fmt.Errorf("%w: comparing %v to %v", ErrType, l.typ, r.typ)
	}
	op := c.Op
	if op < Eq || op > Ge {
		return nil, fmt.Errorf("%w: unknown comparison %d", ErrType, int(op))
	}
	sel = allRows(b, sel)
	switch {
	case l.typ == storage.String:
		return filterStrings(op, l.vec.Str, r.vec.Str, sel), nil
	case l.konst && r.konst:
		if !op.holds(compareFloats(l.float(), r.float())) {
			sel = sel[:0]
		}
		return sel, nil
	case l.konst:
		// literal ⊕ column: mirror into column ⊕ literal.
		l, r, op = r, l, op.mirror()
	}
	switch {
	case r.konst && l.typ == storage.Float64:
		return filterVecConst(op, l.vec.F64, r.float(), sel), nil
	case r.konst:
		return filterVecConst(op, l.vec.I64, r.float(), sel), nil
	case l.typ == storage.Float64 && r.typ == storage.Float64:
		return filterVecVec(op, l.vec.F64, r.vec.F64, sel), nil
	case l.typ == storage.Float64:
		return filterVecVec(op, l.vec.F64, r.vec.I64, sel), nil
	case r.typ == storage.Float64:
		return filterVecVec(op, l.vec.I64, r.vec.F64, sel), nil
	default:
		return filterVecVec(op, l.vec.I64, r.vec.I64, sel), nil
	}
}

// Comparison semantics. Numeric operands compare as float64 and an unordered
// pair (a NaN on either side) counts as equal, so every operator is total: Le
// is !(x > y), Ge is !(x < y), Eq is neither x < y nor x > y, and Ne is
// either. The row loops spell exactly these out per operator.

// compareFloats is the three-way comparison of x and y, unordered as 0.
func compareFloats(x, y float64) int { return b2i(x > y) - b2i(x < y) }

// holds reports the operator's verdict on a three-way comparison outcome.
func (op CmpOp) holds(ord int) bool {
	switch op {
	case Eq:
		return ord == 0
	case Ne:
		return ord != 0
	case Lt:
		return ord < 0
	case Le:
		return ord <= 0
	case Gt:
		return ord > 0
	default:
		return ord >= 0
	}
}

// mirror returns the operator of the comparison with its operands swapped.
func (op CmpOp) mirror() CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default:
		return op
	}
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// number is the element type of a numeric column payload.
type number interface{ int64 | float64 }

// filterVecConst keeps the rows of sel whose column value stands in relation
// op to the literal y, compacting sel in place: every row is written to the
// next free slot, which advances only when the row is kept.
func filterVecConst[T number](op CmpOp, xs []T, y float64, sel []int) []int {
	n := 0
	switch op {
	case Eq:
		for _, i := range sel {
			x := float64(xs[i])
			sel[n] = i
			n += 1 ^ (b2i(x < y) | b2i(x > y))
		}
	case Ne:
		for _, i := range sel {
			x := float64(xs[i])
			sel[n] = i
			n += b2i(x < y) | b2i(x > y)
		}
	case Lt:
		for _, i := range sel {
			sel[n] = i
			n += b2i(float64(xs[i]) < y)
		}
	case Le:
		for _, i := range sel {
			sel[n] = i
			n += b2i(!(float64(xs[i]) > y))
		}
	case Gt:
		for _, i := range sel {
			sel[n] = i
			n += b2i(float64(xs[i]) > y)
		}
	case Ge:
		for _, i := range sel {
			sel[n] = i
			n += b2i(!(float64(xs[i]) < y))
		}
	}
	return sel[:n]
}

// filterVecVec is filterVecConst for two columns.
func filterVecVec[T, U number](op CmpOp, xs []T, ys []U, sel []int) []int {
	n := 0
	switch op {
	case Eq:
		for _, i := range sel {
			x, y := float64(xs[i]), float64(ys[i])
			sel[n] = i
			n += 1 ^ (b2i(x < y) | b2i(x > y))
		}
	case Ne:
		for _, i := range sel {
			x, y := float64(xs[i]), float64(ys[i])
			sel[n] = i
			n += b2i(x < y) | b2i(x > y)
		}
	case Lt:
		for _, i := range sel {
			sel[n] = i
			n += b2i(float64(xs[i]) < float64(ys[i]))
		}
	case Le:
		for _, i := range sel {
			sel[n] = i
			n += b2i(!(float64(xs[i]) > float64(ys[i])))
		}
	case Gt:
		for _, i := range sel {
			sel[n] = i
			n += b2i(float64(xs[i]) > float64(ys[i]))
		}
	case Ge:
		for _, i := range sel {
			sel[n] = i
			n += b2i(!(float64(xs[i]) < float64(ys[i])))
		}
	}
	return sel[:n]
}

func filterStrings(op CmpOp, xs, ys []string, sel []int) []int {
	n := 0
	for _, i := range sel {
		sel[n] = i
		n += b2i(op.holds(strings.Compare(xs[i], ys[i])))
	}
	return sel[:n]
}

// String implements Pred.
func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// And is predicate conjunction with short-circuit filtering.
type And struct {
	// Preds are the conjuncts, applied in order.
	Preds []Pred
}

// Filter implements Pred.
func (a And) Filter(b *storage.Batch, sel []int) ([]int, error) {
	sel = allRows(b, sel)
	var err error
	for _, p := range a.Preds {
		sel, err = p.Filter(b, sel)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			return sel, nil
		}
	}
	return sel, nil
}

// String implements Pred.
func (a And) String() string {
	parts := make([]string, len(a.Preds))
	for i, p := range a.Preds {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// Or is predicate disjunction.
type Or struct {
	// Preds are the disjuncts.
	Preds []Pred
}

// predScratch is the per-page working set of the set-algebra predicates: a
// row-mark vector and a candidate-copy buffer. Pooled so steady-state Or/Not
// filtering over a page stream allocates nothing.
type predScratch struct {
	marks []bool
	cand  []int
}

var predScratchPool = sync.Pool{New: func() any { return new(predScratch) }}

// marksFor returns the mark vector cleared and sized for n rows.
func (s *predScratch) marksFor(n int) []bool {
	if cap(s.marks) < n {
		s.marks = make([]bool, n)
	}
	s.marks = s.marks[:n]
	clear(s.marks)
	return s.marks
}

// Filter implements Pred.
func (o Or) Filter(b *storage.Batch, sel []int) ([]int, error) {
	sel = allRows(b, sel)
	sc := predScratchPool.Get().(*predScratch)
	defer predScratchPool.Put(sc)
	keep := sc.marksFor(b.Len())
	for _, p := range o.Preds {
		// Each disjunct gets a private candidate copy: Filter may destroy
		// its argument's backing, and sel must survive for the next one.
		sc.cand = append(sc.cand[:0], sel...)
		got, err := p.Filter(b, sc.cand)
		if err != nil {
			return nil, err
		}
		for _, i := range got {
			keep[i] = true
		}
	}
	out := sel[:0]
	for _, i := range sel {
		if keep[i] {
			out = append(out, i)
		}
	}
	return out, nil
}

// String implements Pred.
func (o Or) String() string {
	parts := make([]string, len(o.Preds))
	for i, p := range o.Preds {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// Not negates a predicate.
type Not struct {
	// P is the negated predicate.
	P Pred
}

// Filter implements Pred.
func (n Not) Filter(b *storage.Batch, sel []int) ([]int, error) {
	sel = allRows(b, sel)
	sc := predScratchPool.Get().(*predScratch)
	defer predScratchPool.Put(sc)
	sc.cand = append(sc.cand[:0], sel...)
	got, err := n.P.Filter(b, sc.cand)
	if err != nil {
		return nil, err
	}
	drop := sc.marksFor(b.Len())
	for _, i := range got {
		drop[i] = true
	}
	out := sel[:0]
	for _, i := range sel {
		if !drop[i] {
			out = append(out, i)
		}
	}
	return out, nil
}

// String implements Pred.
func (n Not) String() string { return "NOT " + n.P.String() }

// ContainsAll matches rows whose string column contains every substring in
// order (the shape of TPC-H's `NOT LIKE '%special%requests%'`).
type ContainsAll struct {
	// Column is the string column to match.
	Column string
	// Substrings must appear left to right.
	Substrings []string
}

// Filter implements Pred.
func (c ContainsAll) Filter(b *storage.Batch, sel []int) ([]int, error) {
	v, err := b.Col(c.Column)
	if err != nil {
		return nil, err
	}
	if v.Type != storage.String {
		return nil, fmt.Errorf("%w: ContainsAll on %v column %q", ErrType, v.Type, c.Column)
	}
	sel = allRows(b, sel)
	out := sel[:0]
	for _, i := range sel {
		if containsInOrder(v.Str[i], c.Substrings) {
			out = append(out, i)
		}
	}
	return out, nil
}

// String implements Pred.
func (c ContainsAll) String() string {
	return fmt.Sprintf("%s LIKE '%%%s%%'", c.Column, strings.Join(c.Substrings, "%"))
}

func containsInOrder(s string, subs []string) bool {
	for _, sub := range subs {
		i := strings.Index(s, sub)
		if i < 0 {
			return false
		}
		s = s[i+len(sub):]
	}
	return true
}

// allRows materializes the implicit full selection when sel is nil.
func allRows(b *storage.Batch, sel []int) []int {
	if sel != nil {
		return sel
	}
	out := make([]int, b.Len())
	for i := range out {
		out[i] = i
	}
	return out
}

// FillSel resizes buf to the full selection 0..n-1, reusing its backing
// array when capacity allows. This is the owner half of Pred.Filter's
// may-reuse-sel contract: a page-loop that passes FillSel of a retained
// buffer (keeping whatever Filter returns as the next buffer) filters every
// page after the first without allocating a selection vector.
func FillSel(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = i
	}
	return buf
}

// True is a predicate that keeps every row.
type True struct{}

// Filter implements Pred.
func (True) Filter(b *storage.Batch, sel []int) ([]int, error) { return allRows(b, sel), nil }

// String implements Pred.
func (True) String() string { return "TRUE" }

// PredEqual reports whether two predicate trees are structurally identical:
// the same shape built from the same operators, columns, and literals. It is
// the comparison half of the engine's plan-identity guards — two predicates
// for which PredEqual holds filter any batch identically. nil equals only
// nil (an absent predicate is a distinct identity from an explicit True).
// The standard predicate kinds compare without allocating; unknown Pred
// implementations fall back to reflect.DeepEqual.
func PredEqual(a, b Pred) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case True:
		_, ok := b.(True)
		return ok
	case Cmp:
		y, ok := b.(Cmp)
		return ok && x.Op == y.Op && ExprEqual(x.L, y.L) && ExprEqual(x.R, y.R)
	case And:
		y, ok := b.(And)
		return ok && predsEqual(x.Preds, y.Preds)
	case Or:
		y, ok := b.(Or)
		return ok && predsEqual(x.Preds, y.Preds)
	case Not:
		y, ok := b.(Not)
		return ok && PredEqual(x.P, y.P)
	case ContainsAll:
		y, ok := b.(ContainsAll)
		if !ok || x.Column != y.Column || len(x.Substrings) != len(y.Substrings) {
			return false
		}
		for i := range x.Substrings {
			if x.Substrings[i] != y.Substrings[i] {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

func predsEqual(a, b []Pred) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !PredEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ExprEqual reports whether two scalar expression trees are structurally
// identical, under the same contract as PredEqual.
func ExprEqual(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case ColRef:
		y, ok := b.(ColRef)
		return ok && x == y
	case ConstInt:
		y, ok := b.(ConstInt)
		return ok && x == y
	case ConstFloat:
		y, ok := b.(ConstFloat)
		return ok && x == y
	case Arith:
		y, ok := b.(Arith)
		return ok && x.Op == y.Op && ExprEqual(x.L, y.L) && ExprEqual(x.R, y.R)
	default:
		return reflect.DeepEqual(a, b)
	}
}

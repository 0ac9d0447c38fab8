package relop

import (
	"fmt"

	"repro/internal/storage"
)

// operand is one expression evaluated over a page: a scalar literal (konst,
// never materialized) or vec, one value per row. vec may be a column of the
// input batch or belong to an exprScratch; see there for how long it stays
// valid. Operands are read-only.
type operand struct {
	typ   storage.Type
	konst bool
	i     int64
	f     float64
	vec   *storage.Vector
}

// float returns a numeric literal as float64.
func (o operand) float() float64 {
	if o.typ == storage.Float64 {
		return o.f
	}
	return float64(o.i)
}

// floats returns a numeric vector operand as float64s, converting an integer
// payload into sc.
func (o operand) floats(sc *exprScratch) []float64 {
	if o.typ == storage.Float64 {
		return o.vec.F64
	}
	out := sc.vector(storage.Float64, len(o.vec.I64)).F64
	for i, x := range o.vec.I64 {
		out[i] = float64(x)
	}
	return out
}

// vector materializes the operand as an n-row vector. A literal is expanded
// into fresh storage; a vector operand is returned as is, not copied.
func (o operand) vector(n int) storage.Vector {
	if !o.konst {
		return *o.vec
	}
	v := (*exprScratch)(nil).vector(o.typ, n)
	for i := range v.F64 {
		v.F64[i] = o.f
	}
	for i := range v.I64 {
		v.I64[i] = o.i
	}
	return *v
}

// exprScratch hands out the intermediate vectors of expression evaluation
// and keeps them for the next page. It belongs to one operator: reset at the
// top of Push recycles every vector, so one drawn from it — and any operand
// pointing at it — is valid until the owner's next Push. A nil *exprScratch
// allocates fresh storage on every request.
type exprScratch struct {
	vecs []*storage.Vector
	next int
}

func (s *exprScratch) reset() { s.next = 0 }

// vector returns an n-row Int64 or Float64 vector with unspecified contents.
func (s *exprScratch) vector(t storage.Type, n int) *storage.Vector {
	var v *storage.Vector
	switch {
	case s == nil:
		v = new(storage.Vector)
	case s.next == len(s.vecs):
		v = new(storage.Vector)
		s.vecs = append(s.vecs, v)
		s.next++
	default:
		v = s.vecs[s.next]
		s.next++
	}
	v.Type = t
	if t == storage.Float64 {
		if cap(v.F64) < n {
			v.F64 = make([]float64, n)
		}
		v.F64 = v.F64[:n]
	} else {
		if cap(v.I64) < n {
			v.I64 = make([]int64, n)
		}
		v.I64 = v.I64[:n]
	}
	return v
}

// operandOf evaluates e over b. Column references alias the batch, literals
// stay scalar, arithmetic computes into sc; any other Expr implementation
// goes through its own Eval.
func operandOf(e Expr, b *storage.Batch, sc *exprScratch) (operand, error) {
	switch x := e.(type) {
	case ColRef:
		i, err := b.Schema.Index(x.Name)
		if err != nil {
			return operand{}, err
		}
		return operand{typ: b.Vecs[i].Type, vec: &b.Vecs[i]}, nil
	case ConstInt:
		return operand{typ: storage.Int64, konst: true, i: x.V}, nil
	case ConstFloat:
		return operand{typ: storage.Float64, konst: true, f: x.V}, nil
	case Arith:
		return x.operand(b, sc, false)
	default:
		v, err := e.Eval(b)
		if err != nil {
			return operand{}, err
		}
		return operand{typ: v.Type, vec: &v}, nil
	}
}

// evalOwned evaluates e into a vector the caller may hand downstream: only
// intermediates live in sc. Like ColRef.Eval, a bare column reference still
// aliases the batch.
func evalOwned(e Expr, b *storage.Batch, sc *exprScratch) (storage.Vector, error) {
	var o operand
	var err error
	if a, ok := e.(Arith); ok {
		o, err = a.operand(b, sc, true)
	} else {
		o, err = operandOf(e, b, sc)
	}
	if err != nil {
		return storage.Vector{}, err
	}
	return o.vector(b.Len()), nil
}

// operand evaluates the arithmetic node one kernel per node, so every
// intermediate is rounded exactly as a row-at-a-time evaluation rounds it.
// Intermediates come from sc; own puts the node's own result in fresh
// storage, for callers that hand it downstream.
func (a Arith) operand(b *storage.Batch, sc *exprScratch, own bool) (operand, error) {
	l, err := operandOf(a.L, b, sc)
	if err != nil {
		return operand{}, err
	}
	r, err := operandOf(a.R, b, sc)
	if err != nil {
		return operand{}, err
	}
	if l.typ == storage.String || r.typ == storage.String {
		return operand{}, fmt.Errorf("%w: arithmetic on string", ErrType)
	}
	dst := sc
	if own {
		dst = nil
	}
	n := b.Len()
	// Promote to float if either side is float.
	if l.typ == storage.Float64 || r.typ == storage.Float64 {
		if l.konst && r.konst {
			return operand{typ: storage.Float64, konst: true, f: applyFloat(a.Op, l.float(), r.float())}, nil
		}
		out := dst.vector(storage.Float64, n)
		switch {
		case r.konst:
			arithVecConst(a.Op, out.F64, l.floats(sc), r.float(), applyFloat)
		case l.konst:
			arithConstVec(a.Op, out.F64, l.float(), r.floats(sc), applyFloat)
		default:
			arithVecVec(a.Op, out.F64, l.floats(sc), r.floats(sc), applyFloat)
		}
		return operand{typ: storage.Float64, vec: out}, nil
	}
	if l.konst && r.konst {
		return operand{typ: storage.Int64, konst: true, i: applyInt(a.Op, l.i, r.i)}, nil
	}
	out := dst.vector(storage.Int64, n)
	switch {
	case r.konst:
		arithVecConst(a.Op, out.I64, l.vec.I64, r.i, applyInt)
	case l.konst:
		arithConstVec(a.Op, out.I64, l.i, r.vec.I64, applyInt)
	default:
		arithVecVec(a.Op, out.I64, l.vec.I64, r.vec.I64, applyInt)
	}
	return operand{typ: storage.Int64, vec: out}, nil
}

// The arithmetic kernels: one loop per operator and operand shape. Division
// (whose integer form guards a zero divisor) and unknown operators go through
// apply row by row.

func arithVecVec[T number](op ArithOp, out, x, y []T, apply func(ArithOp, T, T) T) {
	x, y = x[:len(out)], y[:len(out)]
	switch op {
	case Add:
		for i := range out {
			out[i] = x[i] + y[i]
		}
	case Sub:
		for i := range out {
			out[i] = x[i] - y[i]
		}
	case Mul:
		for i := range out {
			out[i] = x[i] * y[i]
		}
	default:
		for i := range out {
			out[i] = apply(op, x[i], y[i])
		}
	}
}

func arithVecConst[T number](op ArithOp, out, x []T, c T, apply func(ArithOp, T, T) T) {
	x = x[:len(out)]
	switch op {
	case Add:
		for i := range out {
			out[i] = x[i] + c
		}
	case Sub:
		for i := range out {
			out[i] = x[i] - c
		}
	case Mul:
		for i := range out {
			out[i] = x[i] * c
		}
	default:
		for i := range out {
			out[i] = apply(op, x[i], c)
		}
	}
}

func arithConstVec[T number](op ArithOp, out []T, c T, y []T, apply func(ArithOp, T, T) T) {
	y = y[:len(out)]
	switch op {
	case Add:
		for i := range out {
			out[i] = c + y[i]
		}
	case Sub:
		for i := range out {
			out[i] = c - y[i]
		}
	case Mul:
		for i := range out {
			out[i] = c * y[i]
		}
	default:
		for i := range out {
			out[i] = apply(op, c, y[i])
		}
	}
}

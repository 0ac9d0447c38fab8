package storage

import (
	"fmt"
	"slices"
)

// Vector is one column's values for a batch of tuples. Exactly one of the
// payload slices is in use, selected by Type (Date shares I64).
type Vector struct {
	// Type selects the active payload.
	Type Type
	// I64 backs Int64 and Date vectors.
	I64 []int64
	// F64 backs Float64 vectors.
	F64 []float64
	// Str backs String vectors.
	Str []string
}

// NewVector returns an empty vector of the given type with capacity hint n.
func NewVector(t Type, n int) Vector {
	v := Vector{Type: t}
	switch t {
	case Int64, Date:
		v.I64 = make([]int64, 0, n)
	case Float64:
		v.F64 = make([]float64, 0, n)
	case String:
		v.Str = make([]string, 0, n)
	default:
		panic(fmt.Sprintf("storage: unknown type %v", t))
	}
	return v
}

// Len returns the number of values.
func (v Vector) Len() int {
	switch v.Type {
	case Int64, Date:
		return len(v.I64)
	case Float64:
		return len(v.F64)
	case String:
		return len(v.Str)
	default:
		return 0
	}
}

// AppendInt appends to an integer/date vector.
func (v *Vector) AppendInt(x int64) { v.I64 = append(v.I64, x) }

// AppendFloat appends to a float vector.
func (v *Vector) AppendFloat(x float64) { v.F64 = append(v.F64, x) }

// AppendString appends to a string vector.
func (v *Vector) AppendString(x string) { v.Str = append(v.Str, x) }

// AppendFrom appends element i of src (which must share v's type family).
func (v *Vector) AppendFrom(src Vector, i int) {
	switch v.Type {
	case Int64, Date:
		v.I64 = append(v.I64, src.I64[i])
	case Float64:
		v.F64 = append(v.F64, src.F64[i])
	case String:
		v.Str = append(v.Str, src.Str[i])
	}
}

// AppendVector appends all of src (which must share v's type family) with a
// single slice-level copy.
func (v *Vector) AppendVector(src Vector) {
	switch v.Type {
	case Int64, Date:
		v.I64 = append(v.I64, src.I64...)
	case Float64:
		v.F64 = append(v.F64, src.F64...)
	case String:
		v.Str = append(v.Str, src.Str...)
	}
}

// Slice returns the sub-vector [lo, hi). The result shares backing storage.
func (v Vector) Slice(lo, hi int) Vector {
	out := Vector{Type: v.Type}
	switch v.Type {
	case Int64, Date:
		out.I64 = v.I64[lo:hi]
	case Float64:
		out.F64 = v.F64[lo:hi]
	case String:
		out.Str = v.Str[lo:hi]
	}
	return out
}

// Gather returns a new vector holding v[idx[0]], v[idx[1]], ...
func (v Vector) Gather(idx []int) Vector {
	out := NewVector(v.Type, len(idx))
	out.AppendGather(v, idx)
	return out
}

// AppendGather appends src[idx[0]], src[idx[1]], ... to v, resolving the
// payload type once instead of per row — the hot inner loop of selective
// scans, where AppendFrom's per-element type switch dominates. The
// destination grows once and the loop writes by index.
func (v *Vector) AppendGather(src Vector, idx []int) {
	switch v.Type {
	case Int64, Date:
		v.I64 = appendGather(v.I64, src.I64, idx)
	case Float64:
		v.F64 = appendGather(v.F64, src.F64, idx)
	case String:
		v.Str = appendGather(v.Str, src.Str, idx)
	}
}

func appendGather[T any](dst, src []T, idx []int) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(idx))[:n+len(idx)]
	out := dst[n:]
	for j, i := range idx {
		out[j] = src[i]
	}
	return dst
}

// Equal reports deep value equality (used by tests).
func (v Vector) Equal(o Vector) bool {
	if v.Type != o.Type || v.Len() != o.Len() {
		return false
	}
	switch v.Type {
	case Int64, Date:
		for i := range v.I64 {
			if v.I64[i] != o.I64[i] {
				return false
			}
		}
	case Float64:
		for i := range v.F64 {
			if v.F64[i] != o.F64[i] {
				return false
			}
		}
	case String:
		for i := range v.Str {
			if v.Str[i] != o.Str[i] {
				return false
			}
		}
	}
	return true
}

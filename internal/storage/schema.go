// Package storage implements the in-memory storage substrate of the engine:
// column-major tables, typed column vectors, tuple batches, and the pages
// that move intermediate results between operators. The paper's engine used
// 4 KB pages; this engine's page is a row count, PageRows, sized by the
// measured fixed cost each page pays (see PageRows).
//
// The paper's workloads are memory-resident (Section 2.3: "large memories
// mean the working set of many databases fits entirely in main memory"), so
// there is no disk layer; tables live entirely in RAM.
package storage

import (
	"errors"
	"fmt"
)

// Type enumerates column types. The TPC-H subset the paper exercises needs
// integers, floating-point numerics, dates (days since epoch) and strings.
type Type int

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota
	// Float64 is a 64-bit IEEE float column.
	Float64
	// Date is a day count since 1970-01-01, stored as int64.
	Date
	// String is a variable-length string column.
	String
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case Date:
		return "date"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Fixed returns whether values of the type have a fixed encoded width.
func (t Type) Fixed() bool { return t != String }

// Column describes one attribute of a schema.
type Column struct {
	// Name is the attribute name ("l_extendedprice").
	Name string
	// Type is the storage type.
	Type Type
}

// Schema is an ordered list of columns.
type Schema struct {
	// Cols are the attributes, in tuple order.
	Cols []Column
}

// Errors reported by schema operations.
var (
	ErrNoColumn  = errors.New("storage: no such column")
	ErrDupColumn = errors.New("storage: duplicate column name")
	ErrTypeMism  = errors.New("storage: type mismatch")
	ErrRowShape  = errors.New("storage: row arity mismatch")
)

// NewSchema builds a schema and rejects duplicate column names.
func NewSchema(cols ...Column) (Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if seen[c.Name] {
			return Schema{}, fmt.Errorf("%w: %q", ErrDupColumn, c.Name)
		}
		seen[c.Name] = true
	}
	return Schema{Cols: cols}, nil
}

// MustSchema is NewSchema that panics on error, for static definitions.
func MustSchema(cols ...Column) Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named column, or an error.
func (s Schema) Index(name string) (int, error) {
	for i, c := range s.Cols {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNoColumn, name)
}

// MustIndex is Index that panics on error, for plans built from literals.
func (s Schema) MustIndex(name string) int {
	i, err := s.Index(name)
	if err != nil {
		panic(err)
	}
	return i
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Cols) }

// Equal reports whether two schemas agree column for column (name and type).
func (s Schema) Equal(o Schema) bool {
	if len(s.Cols) != len(o.Cols) {
		return false
	}
	for i, c := range s.Cols {
		if c != o.Cols[i] {
			return false
		}
	}
	return true
}

// Project returns a schema containing only the named columns, in order.
func (s Schema) Project(names ...string) (Schema, error) {
	out := Schema{Cols: make([]Column, 0, len(names))}
	for _, n := range names {
		i, err := s.Index(n)
		if err != nil {
			return Schema{}, err
		}
		out.Cols = append(out.Cols, s.Cols[i])
	}
	return out, nil
}

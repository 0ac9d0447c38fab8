package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// PageRows is the most rows any page the engine makes may carry: the scan
// quantum when a scan does not set its own, and the output page size of
// aggregation and sort. The paper's engine packs intermediate results into
// byte-sized pages ("of typical size of 4K", Section 3.2); this engine's page
// is a row count instead, set by the fixed cost every page pays regardless
// of its rows — a scheduler quantum, a queue hop, a pool round trip per
// column and per-page operator setup, about 4 µs together. At 4 KB a Q1
// lineitem page held 51 rows and that fixed cost was about a third of an
// unshared query's CPU; at about a thousand rows, the batch size vectorized
// engines use for the same reason, it is a small fraction.
const PageRows = 1024

// ErrPageCorrupt is returned when a page fails to decode.
var ErrPageCorrupt = errors.New("storage: corrupt page")

// pageMagic guards against decoding garbage.
const pageMagic = uint32(0xC0DB0BA5)

// EncodePage serializes a batch into a self-describing byte page:
//
//	magic u32 | ncols u16 | nrows u32 | (type u8)* | column payloads
//
// Fixed columns encode 8 bytes per value; strings encode u32 length + bytes.
// Encoding is the engine's stand-in for the per-consumer output copy the
// model charges as s: the pivot pays one encode (or copy) per consumer.
func EncodePage(b *Batch) ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if b.Schema.Arity() > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d columns", ErrRowShape, b.Schema.Arity())
	}
	out := make([]byte, 0, 64+b.EstimatedBytes())
	out = binary.BigEndian.AppendUint32(out, pageMagic)
	out = binary.BigEndian.AppendUint16(out, uint16(b.Schema.Arity()))
	out = binary.BigEndian.AppendUint32(out, uint32(b.Len()))
	for _, c := range b.Schema.Cols {
		out = append(out, byte(c.Type))
	}
	for i, c := range b.Schema.Cols {
		v := b.Vecs[i]
		switch c.Type {
		case Int64, Date:
			for _, x := range v.I64 {
				out = binary.BigEndian.AppendUint64(out, uint64(x))
			}
		case Float64:
			for _, x := range v.F64 {
				out = binary.BigEndian.AppendUint64(out, math.Float64bits(x))
			}
		case String:
			for _, s := range v.Str {
				out = binary.BigEndian.AppendUint32(out, uint32(len(s)))
				out = append(out, s...)
			}
		}
	}
	return out, nil
}

// DecodePage reverses EncodePage. Column names are not stored in the page;
// the caller supplies the schema, whose types must match the page header.
func DecodePage(page []byte, s Schema) (*Batch, error) {
	rd := pageReader{buf: page}
	magic, err := rd.u32()
	if err != nil || magic != pageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrPageCorrupt)
	}
	ncols, err := rd.u16()
	if err != nil {
		return nil, err
	}
	if int(ncols) != s.Arity() {
		return nil, fmt.Errorf("%w: page has %d columns, schema has %d", ErrPageCorrupt, ncols, s.Arity())
	}
	nrows, err := rd.u32()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(ncols); i++ {
		tb, err := rd.u8()
		if err != nil {
			return nil, err
		}
		if Type(tb) != s.Cols[i].Type {
			return nil, fmt.Errorf("%w: column %d type %v, schema says %v", ErrPageCorrupt, i, Type(tb), s.Cols[i].Type)
		}
	}
	b := NewBatch(s, int(nrows))
	for i, c := range s.Cols {
		switch c.Type {
		case Int64, Date:
			for r := 0; r < int(nrows); r++ {
				x, err := rd.u64()
				if err != nil {
					return nil, err
				}
				b.Vecs[i].AppendInt(int64(x))
			}
		case Float64:
			for r := 0; r < int(nrows); r++ {
				x, err := rd.u64()
				if err != nil {
					return nil, err
				}
				b.Vecs[i].AppendFloat(math.Float64frombits(x))
			}
		case String:
			for r := 0; r < int(nrows); r++ {
				n, err := rd.u32()
				if err != nil {
					return nil, err
				}
				str, err := rd.bytes(int(n))
				if err != nil {
					return nil, err
				}
				b.Vecs[i].AppendString(string(str))
			}
		}
	}
	if rd.pos != len(page) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrPageCorrupt, len(page)-rd.pos)
	}
	return b, nil
}

type pageReader struct {
	buf []byte
	pos int
}

func (r *pageReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, fmt.Errorf("%w: truncated", ErrPageCorrupt)
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *pageReader) u8() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *pageReader) u16() (uint16, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *pageReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *pageReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary row codec. Rows ([]Value) are encoded as a count followed by
// tag-length-value entries. The format is self-describing so heap pages,
// index payloads and LOB-resident index blocks all share it.
//
//	row     := uvarint(ncols) value*
//	value   := tag payload
//	tag     := byte(Kind)
//	NUMBER  := 8-byte big-endian float bits
//	STRING  := uvarint(len) bytes
//	BOOL    := byte(0|1)
//	LOB     := varint(id)
//	OBJECT  := uvarint(len(name)) name uvarint(nattrs) value*
//	ARRAY   := uvarint(nelems) value*

// EncodeRow appends the encoding of row to dst and returns the result.
func EncodeRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = encodeValue(dst, v)
	}
	return dst
}

func encodeValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindNumber:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.num))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.str)))
		dst = append(dst, v.str...)
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindLOB:
		dst = binary.AppendVarint(dst, int64(v.num))
	case KindObject:
		dst = binary.AppendUvarint(dst, uint64(len(v.obj.TypeName)))
		dst = append(dst, v.obj.TypeName...)
		dst = binary.AppendUvarint(dst, uint64(len(v.obj.Attrs)))
		for _, a := range v.obj.Attrs {
			dst = encodeValue(dst, a)
		}
	case KindArray:
		dst = binary.AppendUvarint(dst, uint64(len(v.arr)))
		for _, e := range v.arr {
			dst = encodeValue(dst, e)
		}
	}
	return dst
}

// DecodeRow decodes a row previously produced by EncodeRow. It returns the
// row and the number of bytes consumed.
func DecodeRow(src []byte) ([]Value, int, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("types: corrupt row header")
	}
	if n > uint64(len(src)) {
		return nil, 0, fmt.Errorf("types: implausible column count %d", n)
	}
	off := sz
	// One spare slot: scans append the ROWID pseudo-column in place.
	row := make([]Value, n, n+1)
	for i := range row {
		v, consumed, err := decodeValue(src[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("types: column %d: %w", i, err)
		}
		row[i] = v
		off += consumed
	}
	return row, off, nil
}

func decodeValue(src []byte) (Value, int, error) {
	if len(src) == 0 {
		return Value{}, 0, fmt.Errorf("truncated value")
	}
	k := Kind(src[0])
	off := 1
	switch k {
	case KindNull:
		return Null(), off, nil
	case KindNumber:
		if len(src) < off+8 {
			return Value{}, 0, fmt.Errorf("truncated NUMBER")
		}
		bits := binary.BigEndian.Uint64(src[off:])
		return Num(math.Float64frombits(bits)), off + 8, nil
	case KindString:
		n, sz := binary.Uvarint(src[off:])
		if sz <= 0 || uint64(len(src)) < uint64(off+sz)+n {
			return Value{}, 0, fmt.Errorf("truncated VARCHAR2")
		}
		off += sz
		return Str(string(src[off : off+int(n)])), off + int(n), nil
	case KindBool:
		if len(src) < off+1 {
			return Value{}, 0, fmt.Errorf("truncated BOOLEAN")
		}
		return Bool(src[off] != 0), off + 1, nil
	case KindLOB:
		id, sz := binary.Varint(src[off:])
		if sz <= 0 {
			return Value{}, 0, fmt.Errorf("truncated LOB locator")
		}
		return LOB(id), off + sz, nil
	case KindObject:
		n, sz := binary.Uvarint(src[off:])
		if sz <= 0 || uint64(len(src)) < uint64(off+sz)+n {
			return Value{}, 0, fmt.Errorf("truncated object type name")
		}
		off += sz
		name := string(src[off : off+int(n)])
		off += int(n)
		nattrs, sz := binary.Uvarint(src[off:])
		if sz <= 0 || nattrs > uint64(len(src)) {
			return Value{}, 0, fmt.Errorf("truncated object attr count")
		}
		off += sz
		attrs := make([]Value, nattrs)
		for i := range attrs {
			v, consumed, err := decodeValue(src[off:])
			if err != nil {
				return Value{}, 0, err
			}
			attrs[i] = v
			off += consumed
		}
		return Obj(name, attrs...), off, nil
	case KindArray:
		nelems, sz := binary.Uvarint(src[off:])
		if sz <= 0 || nelems > uint64(len(src)) {
			return Value{}, 0, fmt.Errorf("truncated array length")
		}
		off += sz
		elems := make([]Value, nelems)
		for i := range elems {
			v, consumed, err := decodeValue(src[off:])
			if err != nil {
				return Value{}, 0, err
			}
			elems[i] = v
			off += consumed
		}
		return Arr(elems...), off, nil
	default:
		return Value{}, 0, fmt.Errorf("unknown value tag %d", src[0])
	}
}

// EncodeKey encodes a single value as an order-preserving byte key: for
// values a, b of the same kind, Compare(a,b) < 0 iff EncodeKey(a) sorts
// before EncodeKey(b) bytewise. This is what B+-tree and IOT keys use.
// NULLs sort after everything (Oracle default). Strings are suffixed with
// a 0x00 terminator after escaping embedded zeros so that prefixes order
// correctly.
func EncodeKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0xFF)
	case KindNumber:
		bits := math.Float64bits(v.num)
		// Flip so that negative floats order below positives bytewise.
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		dst = append(dst, 0x10)
		return binary.BigEndian.AppendUint64(dst, bits)
	case KindString:
		dst = append(dst, 0x20)
		for i := 0; i < len(v.str); i++ {
			c := v.str[i]
			if c == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, c)
			}
		}
		return append(dst, 0x00, 0x00)
	case KindBool:
		if v.b {
			return append(dst, 0x30, 1)
		}
		return append(dst, 0x30, 0)
	case KindLOB:
		dst = append(dst, 0x40)
		return binary.BigEndian.AppendUint64(dst, uint64(int64(v.num))^(1<<63))
	case KindArray:
		dst = append(dst, 0x50)
		for _, e := range v.arr {
			dst = append(dst, 0x01)
			dst = EncodeKey(dst, e)
		}
		return append(dst, 0x00)
	default:
		// Objects are not orderable; give them a stable bucket so maps of
		// keys still work, and rely on RID tiebreaks.
		return append(dst, 0x60)
	}
}

// CompositeKey encodes several values into one order-preserving key.
func CompositeKey(vs ...Value) []byte {
	var dst []byte
	for _, v := range vs {
		dst = EncodeKey(dst, v)
	}
	return dst
}

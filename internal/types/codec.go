package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
		dst = append(dst, byte(v.num))
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
		dst = binary.AppendUvarint(dst, uint64(len(v.obj.Attrs)))
		for _, e := range v.obj.Attrs {
			dst = encodeValue(dst, e)
		}
	}
	return dst
}

// DecodeRow decodes a row previously produced by EncodeRow. It returns the
// row and the number of bytes consumed.
func DecodeRow(src []byte) ([]Value, int, error) {
	return AppendDecoded(nil, src, nil)
}

// AppendDecoded decodes the row encoded at the front of src, appends its
// columns to dst, and returns the extended slice and the number of bytes
// consumed. read masks the columns: column i is decoded only when read
// is nil or read[i] is true (columns past len(read) are decoded too), and
// a masked-out column is skipped over and appended as NULL, so it costs
// neither an allocation nor a string copy. Decoded strings are copies:
// the result never aliases src. When dst must grow it gets one spare
// slot, so a scan can append the ROWID pseudo-column without growing it
// again.
func AppendDecoded(dst []Value, src []byte, read []bool) ([]Value, int, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return dst, 0, fmt.Errorf("types: corrupt row header")
	}
	if n > uint64(len(src)) {
		return dst, 0, fmt.Errorf("types: implausible column count %d", n)
	}
	base := len(dst)
	dst = slices.Grow(dst, int(n)+1)
	dst, consumed, err := decodeValues(dst, src[sz:], int(n), read, false)
	if err != nil {
		return dst[:base], 0, fmt.Errorf("types: %w", err)
	}
	return dst, sz + consumed, nil
}

// decodeValues decodes the n values at the front of src, appends them to
// dst, and returns the extended slice and the bytes consumed. Value i is
// kept unless read masks it out (i < len(read) && !read[i]); a value not
// kept is only measured, which still checks its framing, and appended as
// NULL. With skip set no value is kept and nothing is appended: the
// caller wants the length alone. Row columns and the attributes of
// OBJECT and VARRAY values all decode here, one value per iteration
// rather than one call, because a scan decodes every column of every
// row it reads.
func decodeValues(dst []Value, src []byte, n int, read []bool, skip bool) ([]Value, int, error) {
	off := 0
	for i := 0; i < n; i++ {
		if off >= len(src) {
			return dst, 0, fmt.Errorf("value %d: truncated", i)
		}
		k := Kind(src[off])
		off++
		keep := !skip && (i >= len(read) || read[i])
		var v Value
		switch k {
		case KindNull:
		case KindNumber:
			if len(src) < off+8 {
				return dst, 0, fmt.Errorf("value %d: truncated NUMBER", i)
			}
			if keep {
				v = Num(math.Float64frombits(binary.BigEndian.Uint64(src[off:])))
			}
			off += 8
		case KindString:
			l, sz := binary.Uvarint(src[off:])
			if sz <= 0 || uint64(len(src)) < uint64(off+sz)+l {
				return dst, 0, fmt.Errorf("value %d: truncated VARCHAR2", i)
			}
			off += sz
			if keep {
				v = Str(string(src[off : off+int(l)]))
			}
			off += int(l)
		case KindBool:
			if len(src) < off+1 {
				return dst, 0, fmt.Errorf("value %d: truncated BOOLEAN", i)
			}
			if keep {
				v = Bool(src[off] != 0)
			}
			off++
		case KindLOB:
			id, sz := binary.Varint(src[off:])
			if sz <= 0 {
				return dst, 0, fmt.Errorf("value %d: truncated LOB locator", i)
			}
			if keep {
				v = LOB(id)
			}
			off += sz
		case KindObject, KindArray:
			var name string
			if k == KindObject {
				l, sz := binary.Uvarint(src[off:])
				if sz <= 0 || uint64(len(src)) < uint64(off+sz)+l {
					return dst, 0, fmt.Errorf("value %d: truncated object type name", i)
				}
				off += sz
				if keep {
					name = string(src[off : off+int(l)])
				}
				off += int(l)
			}
			l, sz := binary.Uvarint(src[off:])
			if sz <= 0 || l > uint64(len(src)) {
				return dst, 0, fmt.Errorf("value %d: truncated %s length", i, k)
			}
			off += sz
			var elems []Value
			if keep {
				elems = make([]Value, 0, l)
			}
			elems, consumed, err := decodeValues(elems, src[off:], int(l), nil, !keep)
			if err != nil {
				return dst, 0, fmt.Errorf("value %d: %w", i, err)
			}
			off += consumed
			if keep {
				v = Value{kind: k, obj: &Object{TypeName: name, Attrs: elems}}
			}
		default:
			return dst, 0, fmt.Errorf("value %d: unknown value tag %d", i, k)
		}
		if !skip {
			dst = append(dst, v)
		}
	}
	return dst, off, nil
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
		return append(dst, 0x30, byte(v.num))
	case KindLOB:
		dst = append(dst, 0x40)
		return binary.BigEndian.AppendUint64(dst, uint64(int64(v.num))^(1<<63))
	case KindArray:
		dst = append(dst, 0x50)
		for _, e := range v.obj.Attrs {
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

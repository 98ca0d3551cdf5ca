package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// bodyView is a reader over one flat body: section offsets into the raw
// bytes, nothing decoded until a section is walked. Payload bodies are
// read through decodePayloadBody; values and materializeValues serve
// value lists (valuesView).
//
// A bodyView is a small value type; copying it is free and no Close is
// needed.
type bodyView struct {
	data []byte // full body, including header
	n    int    // entry count

	tagsOff     int
	keyLensOff  int // -1 for value lists (no keys)
	numOff      int
	byteLensOff int
	keyArenaOff int
	byteArena   int
}

// valuesView validates the structure of a bare value-list body
// (appendValuesBody) and returns a view over it. Validation is O(1):
// section bounds are checked from the header — so a count the body cannot
// hold is refused here, before anything is sized by it — and per-entry
// lengths are checked as sections are walked.
func valuesView(data []byte) (bodyView, error) {
	return makeView(data, false)
}

func makeView(data []byte, keyed bool) (bodyView, error) {
	if len(data) < bodyHeaderLen {
		return bodyView{}, fmt.Errorf("%w: %d bytes, want ≥ %d", ErrCorrupt, len(data), bodyHeaderLen)
	}
	if data[0] != bodyVersion {
		return bodyView{}, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, data[0], bodyVersion)
	}
	n := int(binary.LittleEndian.Uint32(data[1:]))
	keyArenaLen := int(binary.LittleEndian.Uint32(data[5:]))
	numCount := int(binary.LittleEndian.Uint32(data[9:]))
	byteCount := int(binary.LittleEndian.Uint32(data[13:]))
	byteArenaLen := int(binary.LittleEndian.Uint32(data[17:]))
	if n < 0 || numCount < 0 || byteCount < 0 || numCount > n || byteCount > n {
		return bodyView{}, fmt.Errorf("%w: counts %d/%d/%d", ErrCorrupt, n, numCount, byteCount)
	}
	if !keyed && keyArenaLen != 0 {
		return bodyView{}, fmt.Errorf("%w: value list with key arena", ErrCorrupt)
	}
	v := bodyView{data: data, n: n, tagsOff: bodyHeaderLen}
	off := bodyHeaderLen + n // tags
	if keyed {
		v.keyLensOff = off
		off += 4 * n
	} else {
		v.keyLensOff = -1
	}
	v.numOff = off
	off += 8 * numCount
	v.byteLensOff = off
	off += 4 * byteCount
	v.keyArenaOff = off
	off += keyArenaLen
	v.byteArena = off
	off += byteArenaLen
	if off != len(data) {
		return bodyView{}, fmt.Errorf("%w: size %d, sections need %d", ErrCorrupt, len(data), off)
	}
	return v, nil
}

// unsafeString exposes b as a string without copying. The result aliases
// the view's frame.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// forEach calls fn with every entry's index and value, in encoded order,
// stopping at fn's first error. String values are zero-copy views over
// the frame and []byte values sub-slices of it; escape-hatch (gob) values
// are freshly decoded. Structural corruption (a length overrunning its
// arena, an unknown tag) is reported as ErrCorrupt.
func (v bodyView) forEach(fn func(i int, value any) error) error {
	numIdx, byteOff, byteIdx := 0, v.byteArena, 0
	for i := 0; i < v.n; i++ {
		val, nBytes, err := v.value(i, numIdx, byteOff, byteIdx)
		if err != nil {
			return err
		}
		switch v.data[v.tagsOff+i] {
		case tagInt, tagInt64, tagUint64, tagFloat64:
			numIdx++
		case tagString, tagBytes, tagGob:
			byteOff += nBytes
			byteIdx++
		}
		if err := fn(i, val); err != nil {
			return err
		}
	}
	return nil
}

// value decodes entry i given the current column cursors, returning the
// value and (for byte-column entries) its arena length.
func (v bodyView) value(i, numIdx, byteOff, byteIdx int) (any, int, error) {
	switch tag := v.data[v.tagsOff+i]; tag {
	case tagNil:
		return nil, 0, nil
	case tagFalse:
		return false, 0, nil
	case tagTrue:
		return true, 0, nil
	case tagInt, tagInt64, tagUint64, tagFloat64:
		off := v.numOff + 8*numIdx
		if off+8 > v.byteLensOff {
			return nil, 0, fmt.Errorf("%w: value %d overruns the numeric column", ErrCorrupt, i)
		}
		bits := binary.LittleEndian.Uint64(v.data[off:])
		switch tag {
		case tagInt:
			return int(int64(bits)), 0, nil
		case tagInt64:
			return int64(bits), 0, nil
		case tagUint64:
			return bits, 0, nil
		default:
			return math.Float64frombits(bits), 0, nil
		}
	case tagString, tagBytes, tagGob:
		raw, err := v.byteValue(i, byteOff, byteIdx)
		if err != nil {
			return nil, 0, err
		}
		switch tag {
		case tagString:
			return unsafeString(raw), len(raw), nil
		case tagBytes:
			return raw, len(raw), nil
		default:
			val, err := decodeGobValue(raw)
			if err != nil {
				return nil, 0, fmt.Errorf("%w: entry %d: %v", ErrCorrupt, i, err)
			}
			return val, len(raw), nil
		}
	default:
		return nil, 0, fmt.Errorf("%w: unknown tag %d", ErrCorrupt, v.data[v.tagsOff+i])
	}
}

// byteValue returns entry i's bytes, the byteIdx-th value of the byte column,
// which starts at byteOff: a sub-slice of the frame.
func (v bodyView) byteValue(i, byteOff, byteIdx int) ([]byte, error) {
	off := v.byteLensOff + 4*byteIdx
	if off+4 > v.keyArenaOff {
		return nil, fmt.Errorf("%w: value %d overruns the length column", ErrCorrupt, i)
	}
	bl := int(binary.LittleEndian.Uint32(v.data[off:]))
	if bl < 0 || bl > len(v.data)-byteOff {
		return nil, fmt.Errorf("%w: value %d overruns arena", ErrCorrupt, i)
	}
	return v.data[byteOff : byteOff+bl], nil
}

// lines appends a value list's entries to dst as zero-copy strings when
// every entry is one; a list with another entry is ErrNotLines, and nothing
// is appended. Nothing is boxed either way, and structural corruption is
// reported as forEach reports it.
func (v bodyView) lines(dst []string) ([]string, error) {
	for _, tag := range v.data[v.tagsOff : v.tagsOff+v.n] {
		if tag != tagString {
			return dst, ErrNotLines
		}
	}
	byteOff := v.byteArena
	for i := 0; i < v.n; i++ {
		raw, err := v.byteValue(i, byteOff, i)
		if err != nil {
			return dst, err
		}
		dst = append(dst, unsafeString(raw))
		byteOff += len(raw)
	}
	return dst, nil
}

// decodeGobValue decodes one escape-hatch value.
func decodeGobValue(raw []byte) (any, error) {
	var w gobValue
	err := gobDecode(raw, &w)
	return w.V, err
}

// materializeValues decodes a value-list view into a fresh []any with
// detached strings and byte slices.
func (v bodyView) materializeValues() ([]any, error) {
	out, err := v.values()
	for i := range out {
		out[i] = detach(out[i])
	}
	return out, err
}

// values decodes a value-list view zero-copy: strings and []byte values
// alias the frame. Valid only while the frame stays alive and unmodified
// — the dist worker uses this to run map tasks straight off the wire.
func (v bodyView) values() ([]any, error) {
	out := make([]any, v.n)
	err := v.forEach(func(i int, val any) error {
		out[i] = val
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

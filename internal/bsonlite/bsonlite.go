// Package bsonlite implements a compact binary JSON serialization modeled
// on BSON. ViDa uses it in three places: as the docstore baseline's on-disk
// document format (reproducing MongoDB's import behaviour, including its
// space overhead relative to raw JSON), as the binary-JSON layout of the
// Figure 4 micro-experiment (paper Figure 4b), and as colenc's encoding
// of boxed cache columns.
//
// Wire format (little-endian, BSON-inspired):
//
//	document := int32 totalSize, element*, 0x00
//	element  := typeByte, cstring name, payload
//	types    := 0x01 float64 | 0x02 string(int32 len, bytes, 0x00)
//	          | 0x03 document | 0x04 array(document with "0","1",... keys)
//	          | 0x08 bool(byte) | 0x0A null | 0x12 int64
//
// Unlike encoding/json round trips, decoding reproduces the original
// values.Value exactly (ints stay ints).
package bsonlite

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"vida/internal/values"
)

// Element type tags (BSON-compatible where overlapping).
const (
	tagFloat  = 0x01
	tagString = 0x02
	tagDoc    = 0x03
	tagArray  = 0x04
	tagBool   = 0x08
	tagNull   = 0x0A
	tagInt    = 0x12
)

// Marshal encodes a record value as a document. Non-record roots are
// wrapped in a single-field document {"": v} so any value round-trips.
func Marshal(v values.Value) ([]byte, error) {
	return Append(make([]byte, 0, 64), v)
}

// Append appends the document Marshal would return for v to buf.
func Append(buf []byte, v values.Value) ([]byte, error) {
	return appendDoc(buf, v)
}

func appendDoc(buf []byte, v values.Value) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // size placeholder
	var err error
	switch v.Kind() {
	case values.KindRecord:
		for _, f := range v.Fields() {
			buf, err = appendElement(buf, f.Name, f.Val)
			if err != nil {
				return nil, err
			}
		}
	case values.KindList, values.KindBag, values.KindSet, values.KindArray:
		for i, e := range v.Elems() {
			buf, err = appendElement(buf, strconv.Itoa(i), e)
			if err != nil {
				return nil, err
			}
		}
	default:
		buf, err = appendElement(buf, "", v)
		if err != nil {
			return nil, err
		}
	}
	buf = append(buf, 0)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start))
	return buf, nil
}

func appendElement(buf []byte, name string, v values.Value) ([]byte, error) {
	switch v.Kind() {
	case values.KindNull:
		buf = append(buf, tagNull)
		buf = appendCString(buf, name)
	case values.KindBool:
		buf = append(buf, tagBool)
		buf = appendCString(buf, name)
		if v.Bool() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case values.KindInt:
		buf = append(buf, tagInt)
		buf = appendCString(buf, name)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
	case values.KindFloat:
		buf = append(buf, tagFloat)
		buf = appendCString(buf, name)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case values.KindString:
		buf = append(buf, tagString)
		buf = appendCString(buf, name)
		s := v.Str()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)+1))
		buf = append(buf, s...)
		buf = append(buf, 0)
	case values.KindRecord:
		buf = append(buf, tagDoc)
		buf = appendCString(buf, name)
		return appendDoc(buf, v)
	case values.KindList, values.KindBag, values.KindSet, values.KindArray:
		buf = append(buf, tagArray)
		buf = appendCString(buf, name)
		return appendDoc(buf, v)
	default:
		return nil, fmt.Errorf("bsonlite: cannot encode kind %s", v.Kind())
	}
	return buf, nil
}

func appendCString(buf []byte, s string) []byte {
	buf = append(buf, s...)
	return append(buf, 0)
}

// Unmarshal decodes a document produced by Marshal back into a Value.
// Documents whose only element has an empty name decode to that element
// (undoing the wrapping Marshal applies to non-record roots). Array
// documents (all-numeric ascending keys starting at "0" — and at least one
// element) decode to lists.
func Unmarshal(doc []byte) (values.Value, error) {
	v, _, err := readDoc(doc, 0)
	return v, err
}

func readDoc(buf []byte, off int) (values.Value, int, error) {
	if off+4 > len(buf) {
		return values.Null, 0, fmt.Errorf("bsonlite: truncated document header at %d", off)
	}
	size := int(binary.LittleEndian.Uint32(buf[off:]))
	end := off + size
	if size < 5 || end > len(buf) {
		return values.Null, 0, fmt.Errorf("bsonlite: bad document size %d at %d", size, off)
	}
	pos := off + 4
	var fields []values.Field
	arrayLike := true
	for pos < end-1 {
		tag := buf[pos]
		pos++
		name, npos, err := readCString(buf, pos, end-1)
		if err != nil {
			return values.Null, 0, err
		}
		pos = npos
		v, vpos, err := readPayload(buf, pos, tag)
		if err != nil {
			return values.Null, 0, err
		}
		pos = vpos
		if name != strconv.Itoa(len(fields)) {
			arrayLike = false
		}
		fields = append(fields, values.Field{Name: name, Val: v})
	}
	if buf[end-1] != 0 {
		return values.Null, 0, fmt.Errorf("bsonlite: document missing terminator at %d", end-1)
	}
	// Unwrap single anonymous element.
	if len(fields) == 1 && fields[0].Name == "" {
		return fields[0].Val, end, nil
	}
	if arrayLike && len(fields) > 0 {
		elems := make([]values.Value, len(fields))
		for i, f := range fields {
			elems[i] = f.Val
		}
		return values.NewList(elems...), end, nil
	}
	return values.NewRecord(fields...), end, nil
}

func readPayload(buf []byte, pos int, tag byte) (values.Value, int, error) {
	switch tag {
	case tagNull:
		return values.Null, pos, nil
	case tagBool:
		if pos >= len(buf) {
			return values.Null, 0, fmt.Errorf("bsonlite: truncated bool at %d", pos)
		}
		return values.NewBool(buf[pos] != 0), pos + 1, nil
	case tagInt:
		if pos+8 > len(buf) {
			return values.Null, 0, fmt.Errorf("bsonlite: truncated int at %d", pos)
		}
		return values.NewInt(int64(binary.LittleEndian.Uint64(buf[pos:]))), pos + 8, nil
	case tagFloat:
		if pos+8 > len(buf) {
			return values.Null, 0, fmt.Errorf("bsonlite: truncated float at %d", pos)
		}
		return values.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))), pos + 8, nil
	case tagString:
		if pos+4 > len(buf) {
			return values.Null, 0, fmt.Errorf("bsonlite: truncated string header at %d", pos)
		}
		n := int(binary.LittleEndian.Uint32(buf[pos:]))
		pos += 4
		if n < 1 || pos+n > len(buf) {
			return values.Null, 0, fmt.Errorf("bsonlite: bad string length %d at %d", n, pos)
		}
		return values.NewString(string(buf[pos : pos+n-1])), pos + n, nil
	case tagDoc, tagArray:
		return readDoc(buf, pos)
	}
	return values.Null, 0, fmt.Errorf("bsonlite: unknown tag 0x%02x at %d", tag, pos)
}

func readCString(buf []byte, pos, limit int) (string, int, error) {
	for i := pos; i < limit; i++ {
		if buf[i] == 0 {
			return string(buf[pos:i]), i + 1, nil
		}
	}
	return "", 0, fmt.Errorf("bsonlite: unterminated cstring at %d", pos)
}

// GetField extracts a single top-level field from an encoded document
// without decoding the rest — the cheap navigation that makes binary JSON
// an attractive cache layout (paper Figure 4b). It returns false if the
// field is absent.
func GetField(doc []byte, name string) (values.Value, bool, error) {
	if len(doc) < 5 {
		return values.Null, false, fmt.Errorf("bsonlite: document too short")
	}
	size := int(binary.LittleEndian.Uint32(doc))
	if size > len(doc) {
		return values.Null, false, fmt.Errorf("bsonlite: bad document size")
	}
	end := size
	pos := 4
	for pos < end-1 {
		tag := doc[pos]
		pos++
		fname, npos, err := readCString(doc, pos, end-1)
		if err != nil {
			return values.Null, false, err
		}
		pos = npos
		if fname == name {
			v, _, err := readPayload(doc, pos, tag)
			if err != nil {
				return values.Null, false, err
			}
			return v, true, nil
		}
		// Skip payload without decoding.
		skip, err := payloadSize(doc, pos, tag)
		if err != nil {
			return values.Null, false, err
		}
		pos += skip
	}
	return values.Null, false, nil
}

func payloadSize(buf []byte, pos int, tag byte) (int, error) {
	switch tag {
	case tagNull:
		return 0, nil
	case tagBool:
		return 1, nil
	case tagInt, tagFloat:
		return 8, nil
	case tagString:
		if pos+4 > len(buf) {
			return 0, fmt.Errorf("bsonlite: truncated string header at %d", pos)
		}
		return 4 + int(binary.LittleEndian.Uint32(buf[pos:])), nil
	case tagDoc, tagArray:
		if pos+4 > len(buf) {
			return 0, fmt.Errorf("bsonlite: truncated subdocument at %d", pos)
		}
		return int(binary.LittleEndian.Uint32(buf[pos:])), nil
	}
	return 0, fmt.Errorf("bsonlite: unknown tag 0x%02x at %d", tag, pos)
}

// DocSize returns the total encoded size of the document starting at the
// beginning of doc, letting callers slice documents out of larger buffers.
func DocSize(doc []byte) (int, error) {
	if len(doc) < 4 {
		return 0, fmt.Errorf("bsonlite: document too short")
	}
	return int(binary.LittleEndian.Uint32(doc)), nil
}

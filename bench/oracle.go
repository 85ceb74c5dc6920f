package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// want is the expected answer to one request: a decoded JSON tree
// (float64, string, nil, map[string]any, []any) worked out without the
// engine's executor. Every response is compared against it.
type want struct {
	val any
	// ordered says a top-level array must match in order (ORDER BY);
	// otherwise it is compared as a bag.
	ordered bool
	// accepted is the last rendering that passed the full comparison, so a
	// repeat of the same bytes costs one bytes.Equal on the client.
	accepted atomic.Pointer[[]byte]
}

func scalarWant(v float64) *want { return &want{val: v} }

// check reports whether the raw JSON of a response's result is the
// expected answer.
func (w *want) check(raw []byte) bool {
	if acc := w.accepted.Load(); acc != nil && bytes.Equal(*acc, raw) {
		return true
	}
	got, err := decodeJSON(raw)
	if err != nil || !sameValue(got, w.val, w.ordered) {
		return false
	}
	cp := append([]byte(nil), raw...)
	w.accepted.Store(&cp)
	return true
}

func decodeJSON(raw []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return normalize(v), nil
}

// normalize turns json.Number into float64 throughout.
func normalize(v any) any {
	switch x := v.(type) {
	case json.Number:
		f, _ := x.Float64()
		return f
	case []any:
		for i := range x {
			x[i] = normalize(x[i])
		}
	case map[string]any:
		for k := range x {
			x[k] = normalize(x[k])
		}
	}
	return v
}

func sameNumber(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

func sameValue(got, exp any, ordered bool) bool {
	switch e := exp.(type) {
	case nil:
		return got == nil
	case float64:
		g, ok := got.(float64)
		return ok && sameNumber(g, e)
	case string:
		g, ok := got.(string)
		return ok && g == e
	case bool:
		g, ok := got.(bool)
		return ok && g == e
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(e) {
			return false
		}
		for k, ev := range e {
			gv, ok := g[k]
			if !ok || !sameValue(gv, ev, true) {
				return false
			}
		}
		return true
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(e) {
			return false
		}
		if !ordered {
			g, e = sortedBag(g), sortedBag(e)
		}
		for i := range e {
			if !sameValue(g[i], e[i], true) {
				return false
			}
		}
		return true
	}
	return false
}

// sortedBag orders a bag's elements by a rendering coarse enough that two
// floats within tolerance render alike.
func sortedBag(elems []any) []any {
	type keyed struct {
		key string
		val any
	}
	ks := make([]keyed, len(elems))
	for i, e := range elems {
		ks[i] = keyed{bagKey(e), e}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]any, len(elems))
	for i, k := range ks {
		out[i] = k.val
	}
	return out
}

func bagKey(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', 6, 64)
	case string:
		return strconv.Quote(x)
	case map[string]any:
		names := make([]string, 0, len(x))
		for k := range x {
			names = append(names, k)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, k := range names {
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(bagKey(x[k]))
			sb.WriteByte(';')
		}
		return sb.String()
	case []any:
		var sb strings.Builder
		for _, e := range x {
			sb.WriteString(bagKey(e))
			sb.WriteByte(',')
		}
		return sb.String()
	}
	return fmt.Sprint(v)
}

var (
	resultPrefix = []byte(`{"result":`)
	rowsInfix    = []byte(`,"rows":`)
)

// resultOf cuts the result document out of a /query or /sql response body
// without decoding the envelope.
func resultOf(body []byte) ([]byte, bool) {
	if !bytes.HasPrefix(body, resultPrefix) {
		return nil, false
	}
	end := bytes.LastIndex(body, rowsInfix)
	if end < len(resultPrefix) {
		return nil, false
	}
	return body[len(resultPrefix):end], true
}

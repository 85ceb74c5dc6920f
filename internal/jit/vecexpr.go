package jit

import (
	"fmt"

	"vida/internal/mcl"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file implements vectorized expression kernels: arithmetic and
// projection expressions staged into per-batch column loops instead of
// per-row closure evaluation. A kernel computes one output column over
// the live rows of a batch — typed int64/float64 loops when the inputs
// are typed, a row-wise boxed loop (semantics identical to
// mcl.ApplyBinOp) otherwise — so filters over computed values, reduce
// heads, group keys and aggregates, ORDER BY keys and Bind extension
// columns all stay unboxed when the data is. Constants fold into the
// kernels at compile time; a constant standing alone is a broadcast
// column, typed for numbers and strings (a numeric aggregate input such
// as COUNT(*)'s `sum 1` stages none: the fold adds it per row).

// vecExpr computes an expression over the live rows of a batch into a
// column indexed by physical row (dead rows hold stale values no
// consumer reads). The returned column is owned by the kernel and
// reused across batches; identity kernels alias an input column.
// Consumers must never mutate it and must finish with it before the
// next batch arrives.
type vecExpr func(b *vec.Batch) (*vec.Col, error)

// isArithOp reports the binary operators the kernels cover.
func isArithOp(op mcl.BinOp) bool {
	switch op {
	case mcl.OpAdd, mcl.OpSub, mcl.OpMul, mcl.OpDiv, mcl.OpMod:
		return true
	}
	return false
}

// compileVecExpr stages an expression as a vectorized column-kernel
// factory when its shape allows: slot references (identity), numeric
// and string constants (broadcast), negation and + - * / % trees over
// slots with numeric constants folded in. nil means the caller must use
// the row-wise fallback. Each factory call
// returns a kernel with its own scratch, safe for one serial run or one
// morsel worker.
func compileVecExpr(e mcl.Expr, f *frame) func() vecExpr {
	switch n := e.(type) {
	case *mcl.VarExpr, *mcl.ProjExpr:
		idx := slotOf(e, f)
		if idx < 0 {
			return nil
		}
		if idx < len(slotKernels) {
			return slotKernels[idx]
		}
		return slotKernel(idx)
	case *mcl.ConstExpr:
		return constKernel(n.Val)
	case *mcl.NegExpr:
		inner := compileVecExpr(n.E, f)
		if inner == nil {
			return nil
		}
		return negKernel(inner)
	case *mcl.BinExpr:
		if !isArithOp(n.Op) {
			return nil
		}
		lc, lok := constOf(n.L)
		rc, rok := constOf(n.R)
		switch {
		case rok:
			if !rc.IsNumeric() {
				return nil
			}
			inner := compileVecExpr(n.L, f)
			if inner == nil {
				return nil
			}
			return arithColConst(n.Op, inner, rc, false)
		case lok:
			if !lc.IsNumeric() {
				return nil
			}
			inner := compileVecExpr(n.R, f)
			if inner == nil {
				return nil
			}
			return arithColConst(n.Op, inner, lc, true)
		default:
			l := compileVecExpr(n.L, f)
			if l == nil {
				return nil
			}
			r := compileVecExpr(n.R, f)
			if r == nil {
				return nil
			}
			return arithColCol(n.Op, l, r)
		}
	}
	return nil
}

// slotKernel is the identity kernel of slot idx: it returns the batch's
// own column. Stateless, so every consumer shares one kernel.
func slotKernel(idx int) func() vecExpr {
	k := vecExpr(func(b *vec.Batch) (*vec.Col, error) { return &b.Cols[idx], nil })
	return func() vecExpr { return k }
}

// slotKernels are the identity kernels of the first frame slots, built
// once per process: staging a slot reference allocates nothing, per
// query or per consumer.
var slotKernels = func() (ks [256]func() vecExpr) {
	for i := range ks {
		ks[i] = slotKernel(i)
	}
	return ks
}()

// constKernel stages a constant as a broadcast column: Int64 or Float64
// payloads for numbers, a Str column for strings. The kernel fills its
// column once and refills only when a batch is larger than any before it
// — consumers never mutate kernel output, so the fill stays valid. Null
// and the other kinds return nil (the row-wise fallback).
func constKernel(cv values.Value) func() vecExpr {
	switch cv.Kind() {
	case values.KindInt, values.KindFloat, values.KindString:
	default:
		return nil
	}
	return func() vecExpr {
		var full, out vec.Col
		return func(b *vec.Batch) (*vec.Col, error) {
			if full.Len() < b.N {
				full = broadcast(cv, b.N)
			}
			out = full.Slice(0, b.N)
			return &out, nil
		}
	}
}

// broadcast builds an n-row column holding the int, float or string cv
// in every row.
func broadcast(cv values.Value, n int) vec.Col {
	switch cv.Kind() {
	case values.KindInt:
		c := vec.Col{Tag: vec.Int64, Ints: make([]int64, n)}
		for i := range c.Ints {
			c.Ints[i] = cv.Int()
		}
		return c
	case values.KindFloat:
		c := vec.Col{Tag: vec.Float64, Floats: make([]float64, n)}
		for i := range c.Floats {
			c.Floats[i] = cv.Float()
		}
		return c
	}
	c := vec.Col{Tag: vec.Str, Strs: make([]string, n)}
	for i := range c.Strs {
		c.Strs[i] = cv.Str()
	}
	return c
}

// prepOut readies a kernel's scratch column: tag set, payload resized to
// n physical rows reusing capacity, validity mask resized when the
// inputs can produce nulls. Kernels write both mask branches at live
// rows, so the mask never needs zeroing.
func prepOut(out *vec.Col, tag vec.Tag, n int, withNulls bool) {
	out.Tag = tag
	switch tag {
	case vec.Int64:
		if cap(out.Ints) < n {
			out.Ints = make([]int64, n)
		} else {
			out.Ints = out.Ints[:n]
		}
	case vec.Float64:
		if cap(out.Floats) < n {
			out.Floats = make([]float64, n)
		} else {
			out.Floats = out.Floats[:n]
		}
	default:
		if cap(out.Boxed) < n {
			out.Boxed = make([]values.Value, n)
		} else {
			out.Boxed = out.Boxed[:n]
		}
	}
	if withNulls {
		if cap(out.Nulls) < n {
			out.Nulls = make([]bool, n)
		} else {
			out.Nulls = out.Nulls[:n]
		}
	} else {
		out.Nulls = nil
	}
}

// negKernel stages unary negation, mirroring the row path's semantics
// (null passes through, non-numerics error).
func negKernel(mk func() vecExpr) func() vecExpr {
	return func() vecExpr {
		inner := mk()
		out := &vec.Col{}
		return func(b *vec.Batch) (*vec.Col, error) {
			c, err := inner(b)
			if err != nil {
				return nil, err
			}
			n := b.Len()
			switch c.Tag {
			case vec.Int64:
				prepOut(out, vec.Int64, b.N, c.Nulls != nil)
				for k := 0; k < n; k++ {
					i := b.Index(k)
					if c.Nulls != nil {
						if out.Nulls[i] = c.Nulls[i]; out.Nulls[i] {
							continue
						}
					}
					out.Ints[i] = -c.Ints[i]
				}
			case vec.Float64:
				prepOut(out, vec.Float64, b.N, c.Nulls != nil)
				for k := 0; k < n; k++ {
					i := b.Index(k)
					if c.Nulls != nil {
						if out.Nulls[i] = c.Nulls[i]; out.Nulls[i] {
							continue
						}
					}
					out.Floats[i] = -c.Floats[i]
				}
			default:
				prepOut(out, vec.Boxed, b.N, false)
				for k := 0; k < n; k++ {
					i := b.Index(k)
					v := c.Value(i)
					switch v.Kind() {
					case values.KindNull:
						out.Boxed[i] = values.Null
					case values.KindInt:
						out.Boxed[i] = values.NewInt(-v.Int())
					case values.KindFloat:
						out.Boxed[i] = values.NewFloat(-v.Float())
					default:
						return nil, fmt.Errorf("jit: negation of %s", v.Kind())
					}
				}
			}
			return out, nil
		}
	}
}

// arithColConst stages col ⊕ const (or const ⊕ col when constLeft) with
// the constant folded into the kernel.
func arithColConst(op mcl.BinOp, mk func() vecExpr, cv values.Value, constLeft bool) func() vecExpr {
	return func() vecExpr {
		inner := mk()
		out := &vec.Col{}
		return func(b *vec.Batch) (*vec.Col, error) {
			c, err := inner(b)
			if err != nil {
				return nil, err
			}
			if err := runArithColConst(op, c, cv, constLeft, b, out); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
}

func runArithColConst(op mcl.BinOp, c *vec.Col, cv values.Value, constLeft bool, b *vec.Batch, out *vec.Col) error {
	n := b.Len()
	bothInt := c.Tag == vec.Int64 && cv.Kind() == values.KindInt
	switch {
	case bothInt:
		ci := cv.Int()
		prepOut(out, vec.Int64, b.N, c.Nulls != nil)
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if c.Nulls != nil {
				if out.Nulls[i] = c.Nulls[i]; out.Nulls[i] {
					continue
				}
			}
			l, r := c.Ints[i], ci
			if constLeft {
				l, r = ci, l
			}
			v, err := intArith(op, l, r)
			if err != nil {
				return err
			}
			out.Ints[i] = v
		}
		return nil
	case (c.Tag == vec.Int64 || c.Tag == vec.Float64) && cv.IsNumeric() && op != mcl.OpMod:
		cf := cv.Float()
		prepOut(out, vec.Float64, b.N, c.Nulls != nil)
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if c.Nulls != nil {
				if out.Nulls[i] = c.Nulls[i]; out.Nulls[i] {
					continue
				}
			}
			var a float64
			if c.Tag == vec.Int64 {
				a = float64(c.Ints[i])
			} else {
				a = c.Floats[i]
			}
			l, r := a, cf
			if constLeft {
				l, r = cf, l
			}
			out.Floats[i] = floatArith(op, l, r)
		}
		return nil
	}
	// Boxed fallback: row-wise mcl.ApplyBinOp, so nulls, string
	// concatenation and type errors behave exactly as the row engine.
	prepOut(out, vec.Boxed, b.N, false)
	for k := 0; k < n; k++ {
		i := b.Index(k)
		l, r := c.Value(i), cv
		if constLeft {
			l, r = r, l
		}
		v, err := mcl.ApplyBinOp(op, l, r)
		if err != nil {
			return err
		}
		out.Boxed[i] = v
	}
	return nil
}

// arithColCol stages col ⊕ col.
func arithColCol(op mcl.BinOp, mkL, mkR func() vecExpr) func() vecExpr {
	return func() vecExpr {
		l, r := mkL(), mkR()
		out := &vec.Col{}
		return func(b *vec.Batch) (*vec.Col, error) {
			lc, err := l(b)
			if err != nil {
				return nil, err
			}
			rc, err := r(b)
			if err != nil {
				return nil, err
			}
			if err := runArithColCol(op, lc, rc, b, out); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
}

func runArithColCol(op mcl.BinOp, lc, rc *vec.Col, b *vec.Batch, out *vec.Col) error {
	n := b.Len()
	withNulls := lc.Nulls != nil || rc.Nulls != nil
	nullAt := func(i int) bool {
		return (lc.Nulls != nil && lc.Nulls[i]) || (rc.Nulls != nil && rc.Nulls[i])
	}
	switch {
	case lc.Tag == vec.Int64 && rc.Tag == vec.Int64:
		prepOut(out, vec.Int64, b.N, withNulls)
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if withNulls {
				if out.Nulls[i] = nullAt(i); out.Nulls[i] {
					continue
				}
			}
			v, err := intArith(op, lc.Ints[i], rc.Ints[i])
			if err != nil {
				return err
			}
			out.Ints[i] = v
		}
		return nil
	case numericTag(lc.Tag) && numericTag(rc.Tag) && op != mcl.OpMod:
		prepOut(out, vec.Float64, b.N, withNulls)
		for k := 0; k < n; k++ {
			i := b.Index(k)
			if withNulls {
				if out.Nulls[i] = nullAt(i); out.Nulls[i] {
					continue
				}
			}
			out.Floats[i] = floatArith(op, numAt(lc, i), numAt(rc, i))
		}
		return nil
	}
	// Boxed fallback: row-wise mcl.ApplyBinOp (see runArithColConst).
	prepOut(out, vec.Boxed, b.N, false)
	for k := 0; k < n; k++ {
		i := b.Index(k)
		v, err := mcl.ApplyBinOp(op, lc.Value(i), rc.Value(i))
		if err != nil {
			return err
		}
		out.Boxed[i] = v
	}
	return nil
}

func numericTag(t vec.Tag) bool { return t == vec.Int64 || t == vec.Float64 }

// numAt reads a numeric column's row as float64 (the widening the row
// engine applies for mixed int/float arithmetic).
func numAt(c *vec.Col, i int) float64 {
	if c.Tag == vec.Int64 {
		return float64(c.Ints[i])
	}
	return c.Floats[i]
}

// intArith applies one integer operation; division and modulo route
// their zero-divisor case through mcl.ApplyBinOp so the error is
// byte-identical with the row engine's.
func intArith(op mcl.BinOp, l, r int64) (int64, error) {
	switch op {
	case mcl.OpAdd:
		return l + r, nil
	case mcl.OpSub:
		return l - r, nil
	case mcl.OpMul:
		return l * r, nil
	case mcl.OpDiv:
		if r == 0 {
			_, err := mcl.ApplyBinOp(op, values.NewInt(l), values.NewInt(0))
			return 0, err
		}
		return l / r, nil
	default: // OpMod
		if r == 0 {
			_, err := mcl.ApplyBinOp(op, values.NewInt(l), values.NewInt(0))
			return 0, err
		}
		return l % r, nil
	}
}

func floatArith(op mcl.BinOp, l, r float64) float64 {
	switch op {
	case mcl.OpAdd:
		return l + r
	case mcl.OpSub:
		return l - r
	case mcl.OpMul:
		return l * r
	default: // OpDiv; OpMod never reaches the float loops
		return l / r
	}
}

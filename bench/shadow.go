package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vida"
	"vida/internal/algebra"
	"vida/internal/cache"
	"vida/internal/jit"
	"vida/internal/mcl"
	"vida/internal/optimizer"
	"vida/internal/rawcsv"
	"vida/internal/rawjson"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/sqlfront"
	"vida/internal/values"
	"vida/internal/vec"
)

// shadow takes a request through each package's public functions, one
// span per call: what the product does between the HTTP handler and the
// raw bytes, minus core's own interposition (admission, plan cache,
// harvest into the cache), which only the product's handler exercises.
// Scans read what the engine would read: its cache when the entry covers
// the fields, else a raw reader of the shadow's own over the same file.
type shadow struct {
	t  *tracer
	in *instance

	mu  sync.Mutex                // guards raw: the two sides of a join may open readers at once
	raw map[string]algebra.Source // the shadow's own readers, by source name

	workers     int             // jit.Options.Workers; 0 is the engine's default
	req, parent int             // request and span the running closure's scans belong to
	forceRaw    map[string]bool // sources the real request read raw
	rows        atomic.Int64    // rows scanned by the running closure
}

func newShadow(t *tracer, in *instance) *shadow {
	return &shadow{t: t, in: in, raw: map[string]algebra.Source{}}
}

// timed runs f under a span of the layers tree.
func (sh *shadow) timed(parent int, name, layer string, f func() error) error {
	id := sh.t.begin(treeLayers, sh.req, parent, name, layer)
	err := f()
	sh.t.end(id)
	return err
}

// run takes rq through the layers. rawSources names the sources the real
// request scanned raw, so the shadow reads them raw too even though the
// real scan has since harvested them into the cache.
func (sh *shadow) run(req int, rq *request, rawSources map[string]bool) error {
	sh.req, sh.forceRaw = req, rawSources
	root := sh.t.begin(treeLayers, req, 0, "layers "+rq.path, "bench")
	defer sh.t.end(root)
	eng := sh.in.eng.Internal()
	text := rq.text

	if rq.sql {
		if err := sh.timed(root, "sqlfront.Translate", "sqlfront", func() error {
			comp, err := sqlfront.Translate(text)
			if err == nil {
				text = comp.String()
			}
			return err
		}); err != nil {
			return err
		}
	}
	var expr, norm mcl.Expr
	if err := sh.timed(root, "mcl.Parse", "mcl", func() (err error) { expr, err = mcl.Parse(text); return }); err != nil {
		return err
	}
	env := map[string]*sdg.Type{}
	sources := map[string]bool{}
	for _, name := range eng.Sources() {
		sources[name] = true
		env[name] = sdg.Unknown
		if d, ok := eng.Description(name); ok && d.Schema != nil {
			env[name] = sdg.Bag(d.IterationType())
		}
	}
	if err := sh.timed(root, "mcl.Check", "mcl", func() error { _, err := mcl.Check(expr, mcl.NewTypeEnv(env)); return err }); err != nil {
		return err
	}
	sh.timed(root, "mcl.Normalize", "mcl", func() error { norm = mcl.Normalize(expr); return nil })
	var plan *algebra.Reduce
	if err := sh.timed(root, "algebra.Translate", "algebra", func() (err error) { plan, err = algebra.Translate(norm, sources); return }); err != nil {
		return err
	}
	sh.timed(root, "optimizer.Optimize", "optimizer", func() error { optimizer.Optimize(plan, nil); return nil })

	// From here on the shadow runs the plan the engine itself chose (its
	// optimizer sees cache residency and positional maps), fetched through
	// the engine's plan cache, which the real request has just filled.
	var prep interface{ Plan() *algebra.Reduce }
	if err := sh.timed(root, "core.PrepareCtx", "core", func() error {
		p, err := eng.PrepareCtx(context.Background(), text)
		prep = p
		return err
	}); err != nil {
		return err
	}
	params := map[string]values.Value{}
	for i, a := range rq.args {
		switch v := a.(type) {
		case int64:
			params[strconv.Itoa(i+1)] = values.NewInt(v)
		case float64:
			params[strconv.Itoa(i+1)] = values.NewFloat(v)
		case string:
			params[strconv.Itoa(i+1)] = values.NewString(v)
		default:
			return fmt.Errorf("shadow: unsupported parameter %T", a)
		}
	}
	bound := prep.Plan()
	sh.timed(root, "algebra.BindParams", "algebra", func() error { bound = algebra.BindParams(bound, params); return nil })

	var prog func() (values.Value, error)
	if err := sh.timed(root, "jit.CompileWith", "jit", func() (err error) {
		prog, err = jit.CompileWith(bound, shadowCatalog{sh}, jit.Options{Pool: sched.Default(), Workers: sh.workers})
		return
	}); err != nil {
		return err
	}
	exec := sh.t.begin(treeLayers, req, root, "jit.exec", "jit")
	sh.parent = exec
	_, err := prog()
	sh.t.end(exec)
	return err
}

// encode times Value.AppendJSON on a value rebuilt from a response's
// decoded result, and returns how many rows it held.
func (sh *shadow) encode(req int, decoded any) int {
	v, rows := rebuild(decoded)
	root := sh.t.begin(treeLayers, req, 0, "encode", "bench")
	sh.req = req
	sh.timed(root, "vida.Value.AppendJSON", "serve", func() error { v.AppendJSON(nil); return nil })
	sh.t.end(root)
	return rows
}

// rebuild turns a decoded JSON tree back into an engine value.
func rebuild(v any) (vida.Value, int) {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return vida.NewInt(int64(x)), 1
		}
		return vida.NewFloat(x), 1
	case string:
		return vida.NewString(x), 1
	case bool:
		return vida.NewBool(x), 1
	case map[string]any:
		names := make([]string, 0, len(x))
		for k := range x {
			names = append(names, k)
		}
		sort.Strings(names)
		fields := make([]vida.Field, len(names))
		for i, k := range names {
			fields[i].Name = k
			fields[i].Val, _ = rebuild(x[k])
		}
		return vida.NewRecord(fields...), 1
	case []any:
		elems := make([]vida.Value, len(x))
		for i, e := range x {
			elems[i], _ = rebuild(e)
		}
		return vida.NewList(elems...), max(len(x), 1)
	}
	return vida.Null, 1
}

// shadowCatalog hands the JIT the shadow's sources and the engine's
// descriptions.
type shadowCatalog struct{ sh *shadow }

func (c shadowCatalog) Source(name string) (algebra.Source, bool) {
	if _, ok := c.sh.in.eng.Internal().Description(name); !ok {
		return nil, false
	}
	return &shadowSource{sh: c.sh, name: name}, true
}

func (c shadowCatalog) Description(name string) (*sdg.Description, bool) {
	return c.sh.in.eng.Internal().Description(name)
}

// shadowSource times every scan call and, inside it, the pipeline the
// scan pushes its batches into.
type shadowSource struct {
	sh   *shadow
	name string
}

func (s *shadowSource) Name() string { return s.name }

// reader returns the shadow's own raw reader of the source, opened on
// first use.
func (s *shadowSource) reader() (r algebra.Source, layer string, err error) {
	d, _ := s.sh.in.eng.Internal().Description(s.name)
	layer = "rawcsv"
	if d.Format == sdg.FormatJSON {
		layer = "rawjson"
	}
	s.sh.mu.Lock()
	defer s.sh.mu.Unlock()
	if r, ok := s.sh.raw[s.name]; ok {
		return r, layer, nil
	}
	if d.Format == sdg.FormatJSON {
		r, err = rawjson.Open(d)
	} else {
		r, err = rawcsv.Open(d)
	}
	if err != nil {
		return nil, "", err
	}
	s.sh.raw[s.name] = r
	return r, layer, nil
}

// cached returns the engine's cache entry when it covers fields and the
// real request did not read this source raw.
func (s *shadowSource) cached(fields []string) (*cache.ColumnsSource, string) {
	if s.sh.forceRaw[s.name] || len(fields) == 0 {
		return nil, ""
	}
	mgr := s.sh.in.eng.Internal().Caches()
	entry, ok := mgr.Peek(s.name, cache.LayoutColumns)
	if !ok || !entry.HasColumns(fields) {
		return nil, ""
	}
	layer := "cache"
	if entry.Encoded() {
		layer = "colenc"
	}
	return &cache.ColumnsSource{Entry: entry, Dataset: s.name}, layer
}

// scan runs one scan call under a span of the source's layer, with the
// time its batches spent in the pushed pipeline as a child span of jit.
func (s *shadowSource) scan(name, layer string, call func(yield func(*vec.Batch) error) error, yield func(*vec.Batch) error) error {
	t := s.sh.t
	id := t.begin(treeLayers, s.sh.req, s.sh.parent, name, layer)
	var inPipeline time.Duration
	batches := 0
	err := call(func(b *vec.Batch) error {
		t0 := time.Now()
		s.sh.rows.Add(int64(b.N))
		err := yield(b)
		inPipeline += time.Since(t0)
		batches++
		return err
	})
	t.end(id)
	t.mu.Lock()
	start := t.spans[id-1].Start
	t.mu.Unlock()
	t.add(span{Tree: treeLayers, Request: s.sh.req, Parent: id, Name: "pipeline", Layer: "jit",
		Start: start, End: start + int64(inPipeline), Calls: batches})
	return err
}

// IterateBatches implements jit.BatchSource.
func (s *shadowSource) IterateBatches(fields []string, batchSize int, yield func(*vec.Batch) error) error {
	if src, layer := s.cached(fields); src != nil {
		return s.scan("cache.ColumnsSource.IterateBatches", layer, func(y func(*vec.Batch) error) error {
			return src.IterateBatches(fields, batchSize, y)
		}, yield)
	}
	r, layer, err := s.reader()
	if err != nil {
		return err
	}
	if bs, ok := r.(jit.BatchSource); ok {
		return s.scan(layer+".Reader.IterateBatches", layer, func(y func(*vec.Batch) error) error {
			return bs.IterateBatches(fields, batchSize, y)
		}, yield)
	}
	// A record-only reader (JSON): pack its records into batches, as the
	// JIT's generic scan does.
	return s.scan(layer+".Reader.Iterate", layer, func(y func(*vec.Batch) error) error {
		p := vec.NewPacker(len(fields), batchSize, nil, y)
		row := make([]values.Value, len(fields))
		if err := r.Iterate(fields, func(v values.Value) error {
			for i, f := range fields {
				row[i], _ = v.Get(f)
			}
			return p.Add(row)
		}); err != nil {
			return err
		}
		return p.Flush()
	}, yield)
}

// OpenRange implements jit.RangeBatchSource.
func (s *shadowSource) OpenRange(fields []string) (func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, int, bool) {
	name, layer := "", ""
	var open func() (func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, int, bool)
	if src, l := s.cached(fields); src != nil {
		name, layer, open = "cache.ColumnsSource range scan", l, func() (func(int, int, int, func(*vec.Batch) error) error, int, bool) {
			return src.OpenRange(fields)
		}
	} else {
		r, l, err := s.reader()
		rs, ok := r.(jit.RangeBatchSource)
		if err != nil || !ok {
			return nil, 0, false
		}
		name, layer, open = l+".Reader range scan", l, func() (func(int, int, int, func(*vec.Batch) error) error, int, bool) {
			return rs.OpenRange(fields)
		}
	}
	scan, n, ok := open()
	if !ok {
		return nil, 0, false
	}
	return func(lo, hi, batchSize int, yield func(*vec.Batch) error) error {
		return s.scan(name, layer, func(y func(*vec.Batch) error) error { return scan(lo, hi, batchSize, y) }, yield)
	}, n, true
}

// Iterate implements algebra.Source for whole-record scans.
func (s *shadowSource) Iterate(fields []string, yield func(values.Value) error) error {
	r, layer, err := s.reader()
	if err != nil {
		return err
	}
	t := s.sh.t
	id := t.begin(treeLayers, s.sh.req, s.sh.parent, layer+".Reader.Iterate", layer)
	defer t.end(id)
	return r.Iterate(fields, func(v values.Value) error {
		s.sh.rows.Add(1)
		return yield(v)
	})
}

package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"vida/internal/algebra"
	"vida/internal/bsonlite"
	"vida/internal/cache"
	"vida/internal/docstore"
	"vida/internal/etl"
	"vida/internal/jit"
	"vida/internal/mcl"
	"vida/internal/optimizer"
	"vida/internal/rawcsv"
	"vida/internal/rawjson"
	"vida/internal/sdg"
	"vida/internal/storagerow"
	"vida/internal/values"
	"vida/internal/workload"
)

// ---------------------------------------------------------------------------
// E3 — Figure 4: layouts for a tuple carrying a JSON object
// ---------------------------------------------------------------------------

// span is a byte range into the raw file, the (d) layout's per-row entry.
type span struct{ start, end int64 }

// Fig4Row is one layout's cost profile.
type Fig4Row struct {
	Layout        string
	BuildSec      float64 // materializing the cache entry
	QuerySec      float64 // running the repeated query workload
	ResidentBytes int64   // cache footprint
}

// RunFig4 compares the four layouts of Figure 4 for a query that filters
// regions on a scalar and finally projects the carried pipeline object:
// (a) raw JSON text, (b) binary JSON, (c) parsed objects, (d) byte
// positions into the raw file. Queries repeat to model reuse.
func RunFig4(dir string, sc workload.Scale, repeats int, seed int64) ([]Fig4Row, error) {
	regionsPath := filepath.Join(dir, "regions_fig4.json")
	if err := workload.GenerateBrainRegions(regionsPath, sc, seed); err != nil {
		return nil, err
	}
	desc := sdg.DefaultDescription("Regions", sdg.FormatJSON, regionsPath, sdg.Bag(sdg.Unknown))
	rd, err := rawjson.Open(desc)
	if err != nil {
		return nil, err
	}
	n, err := rd.NumObjects()
	if err != nil {
		return nil, err
	}

	// The query: for objects with volume > threshold, read intensity and
	// materialize the pipeline object of qualifying rows.
	threshold := 2500.0
	var rows []Fig4Row

	// (a) JSON text: keep each object's raw bytes; parse per use.
	t0 := time.Now()
	texts := make([][]byte, n)
	var textBytes int64
	for i := 0; i < n; i++ {
		b, err := rd.ObjectBytes(i)
		if err != nil {
			return nil, err
		}
		texts[i] = b
		textBytes += int64(len(b))
	}
	build := time.Since(t0).Seconds()
	t0 = time.Now()
	for rep := 0; rep < repeats; rep++ {
		for i := 0; i < n; i++ {
			obj, _, err := rawjson.ParseValue(texts[i], 0)
			if err != nil {
				return nil, err
			}
			if vol, ok := obj.Get("volume"); ok && vol.Float() > threshold {
				_ = obj.MustGet("intensity")
				_, _ = obj.Get("pipeline")
			}
		}
	}
	rows = append(rows, Fig4Row{Layout: "json-text", BuildSec: build, QuerySec: time.Since(t0).Seconds(), ResidentBytes: textBytes})

	// (b) BSON: encode once; navigate fields without full decode.
	t0 = time.Now()
	docs := make([][]byte, n)
	var bsonBytes int64
	for i := 0; i < n; i++ {
		obj, err := rd.ParseObject(i)
		if err != nil {
			return nil, err
		}
		d, err := bsonlite.Marshal(obj)
		if err != nil {
			return nil, err
		}
		docs[i] = d
		bsonBytes += int64(len(d))
	}
	build = time.Since(t0).Seconds()
	t0 = time.Now()
	for rep := 0; rep < repeats; rep++ {
		for i := 0; i < n; i++ {
			vol, _, err := bsonlite.GetField(docs[i], "volume")
			if err != nil {
				return nil, err
			}
			if !vol.IsNull() && vol.Float() > threshold {
				if _, _, err := bsonlite.GetField(docs[i], "intensity"); err != nil {
					return nil, err
				}
				if _, _, err := bsonlite.GetField(docs[i], "pipeline"); err != nil {
					return nil, err
				}
			}
		}
	}
	rows = append(rows, Fig4Row{Layout: "bson", BuildSec: build, QuerySec: time.Since(t0).Seconds(), ResidentBytes: bsonBytes})

	// (c) parsed objects: full materialization once; direct access.
	t0 = time.Now()
	objs := make([]values.Value, n)
	var objBytes int64
	for i := 0; i < n; i++ {
		obj, err := rd.ParseObject(i)
		if err != nil {
			return nil, err
		}
		objs[i] = obj
		objBytes += cache.EstimateValueBytes(obj)
	}
	build = time.Since(t0).Seconds()
	t0 = time.Now()
	for rep := 0; rep < repeats; rep++ {
		for i := 0; i < n; i++ {
			if vol, ok := objs[i].Get("volume"); ok && vol.Float() > threshold {
				_ = objs[i].MustGet("intensity")
				_, _ = objs[i].Get("pipeline")
			}
		}
	}
	rows = append(rows, Fig4Row{Layout: "object", BuildSec: build, QuerySec: time.Since(t0).Seconds(), ResidentBytes: objBytes})

	// (d) positions: carry (start,end) plus the scalar columns; assemble
	// the pipeline object from the raw file only for qualifying rows.
	t0 = time.Now()
	spans := make([]span, n)
	vols := make([]float64, n)
	for i := 0; i < n; i++ {
		s, e, err := rd.ObjectSpan(i)
		if err != nil {
			return nil, err
		}
		spans[i] = span{start: s, end: e}
		v, err := rd.ExtractPath(i, "volume")
		if err != nil {
			return nil, err
		}
		vols[i] = v.Float()
	}
	build = time.Since(t0).Seconds()
	t0 = time.Now()
	for rep := 0; rep < repeats; rep++ {
		for i := 0; i < n; i++ {
			if vols[i] > threshold {
				if _, err := rd.ExtractPath(i, "intensity"); err != nil {
					return nil, err
				}
				if _, err := rd.ExtractPath(i, "pipeline"); err != nil {
					return nil, err
				}
			}
		}
	}
	rows = append(rows, Fig4Row{Layout: "positions", BuildSec: build, QuerySec: time.Since(t0).Seconds(), ResidentBytes: int64(n*16) + int64(n*8)})
	return rows, nil
}

// ---------------------------------------------------------------------------
// E5 — document-store import space amplification
// ---------------------------------------------------------------------------

// MongoSpaceResult compares raw JSON size with the imported footprint.
type MongoSpaceResult struct {
	RawJSONBytes   int64
	ImportedBytes  int64
	ImportSec      float64
	Amplification  float64
	ImportedDocs   int
	SourceObjCount int
}

// RunMongoSpace imports the BrainRegions JSON into the document store and
// reports the size blow-up (paper: 12 GB from a 5.3 GB raw file).
func RunMongoSpace(dir string, sc workload.Scale, seed int64) (*MongoSpaceResult, error) {
	regionsPath := filepath.Join(dir, "regions_space.json")
	if err := workload.GenerateBrainRegions(regionsPath, sc, seed); err != nil {
		return nil, err
	}
	iter, rawBytes, err := jsonIterator(regionsPath)
	if err != nil {
		return nil, err
	}
	ds, err := docstore.Open(filepath.Join(dir, "docstore_space"))
	if err != nil {
		return nil, err
	}
	coll, err := ds.CreateCollection("Regions")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	nObjs := 0
	if err := iter(func(v values.Value) error {
		nObjs++
		return coll.Insert(v)
	}); err != nil {
		return nil, err
	}
	if err := coll.FinishLoad(); err != nil {
		return nil, err
	}
	importSec := time.Since(t0).Seconds()
	return &MongoSpaceResult{
		RawJSONBytes:   rawBytes,
		ImportedBytes:  coll.SizeBytes(),
		ImportSec:      importSec,
		Amplification:  float64(coll.SizeBytes()) / float64(rawBytes),
		ImportedDocs:   coll.NumDocs(),
		SourceObjCount: nObjs,
	}, nil
}

// ---------------------------------------------------------------------------
// E6 — JIT generated operators vs static pre-cooked operators
// ---------------------------------------------------------------------------

// JITvsStaticRow is one plan's timing on both engines.
type JITvsStaticRow struct {
	Plan      string
	JITSec    float64
	StaticSec float64 // algebra.Reference's time
	Ratio     float64 // static / jit
}

// RunJITvsStatic runs representative plans on the generated-operator
// engine and on the interpreter's generic pre-cooked operators
// (algebra.Reference).
func RunJITvsStatic(dir string, sc workload.Scale, repeats int, seed int64) ([]JITvsStaticRow, error) {
	paths, err := workload.GenerateAll(dir, sc, seed)
	if err != nil {
		return nil, err
	}
	pt, err := sdg.ParseSchema(workload.PatientsSchema(sc))
	if err != nil {
		return nil, err
	}
	pDesc := sdg.DefaultDescription("Patients", sdg.FormatCSV, paths.Patients, sdg.Bag(pt))
	pr, err := rawcsv.Open(pDesc)
	if err != nil {
		return nil, err
	}
	gt, err := sdg.ParseSchema(workload.GeneticsSchema(sc))
	if err != nil {
		return nil, err
	}
	gDesc := sdg.DefaultDescription("Genetics", sdg.FormatCSV, paths.Genetics, sdg.Bag(gt))
	gr, err := rawcsv.Open(gDesc)
	if err != nil {
		return nil, err
	}
	cat := &expCatalog{
		sources: map[string]algebra.Source{"Patients": pr, "Genetics": gr},
		descs:   map[string]*sdg.Description{"Patients": pDesc, "Genetics": gDesc},
	}
	queries := []struct {
		name string
		text string
	}{
		{"scan-filter-agg", `for { p <- Patients, p.age > 40 } yield sum p.bmi`},
		{"scan-project", `for { p <- Patients, p.age > 60 } yield bag (a := p.age, b := p.bmi)`},
		{"join-agg", `for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 50 } yield count 1`},
	}
	var rows []JITvsStaticRow
	for _, q := range queries {
		expr, err := mcl.Parse(q.text)
		if err != nil {
			return nil, err
		}
		plan, err := algebra.Translate(mcl.Normalize(expr), map[string]bool{"Patients": true, "Genetics": true})
		if err != nil {
			return nil, err
		}
		opt := optimizer.Optimize(plan, nil)
		// Warm the positional maps so both engines measure pure
		// execution, not first-touch raw parsing.
		if _, err := (jit.Executor{}).Run(opt, cat); err != nil {
			return nil, err
		}
		var want values.Value
		t0 := time.Now()
		for i := 0; i < repeats; i++ {
			v, err := (jit.Executor{}).Run(opt, cat)
			if err != nil {
				return nil, err
			}
			want = v
		}
		jitSec := time.Since(t0).Seconds()
		t0 = time.Now()
		for i := 0; i < repeats; i++ {
			v, err := (algebra.Reference{}).Run(opt, cat)
			if err != nil {
				return nil, err
			}
			if !values.Equal(v, want) {
				return nil, fmt.Errorf("engines diverge on %s: %v vs %v", q.name, v, want)
			}
		}
		staticSec := time.Since(t0).Seconds()
		rows = append(rows, JITvsStaticRow{
			Plan: q.name, JITSec: jitSec, StaticSec: staticSec, Ratio: staticSec / jitSec,
		})
	}
	return rows, nil
}

type expCatalog struct {
	sources map[string]algebra.Source
	descs   map[string]*sdg.Description
}

func (c *expCatalog) Source(name string) (algebra.Source, bool) {
	s, ok := c.sources[name]
	return s, ok
}

func (c *expCatalog) Description(name string) (*sdg.Description, bool) {
	d, ok := c.descs[name]
	return d, ok
}

// ---------------------------------------------------------------------------
// E7 — positional maps: repeated access cost vs attribute position
// ---------------------------------------------------------------------------

// PosmapRow is one attribute-position measurement.
type PosmapRow struct {
	ColumnIndex int
	ColdSec     float64 // first access (tokenize whole prefix)
	WarmSec     float64 // repeat access via positional map
	Speedup     float64
}

// RunPosmap sweeps attribute positions in a wide CSV: the first access
// pays tokenization up to the column; repeats jump via the positional
// map. The paper's cost model says CSV cost varies with attribute
// distance — this measures it.
func RunPosmap(dir string, sc workload.Scale, seed int64) ([]PosmapRow, error) {
	path := filepath.Join(dir, "genetics_posmap.csv")
	if err := workload.GenerateGenetics(path, sc, seed); err != nil {
		return nil, err
	}
	gt, err := sdg.ParseSchema(workload.GeneticsSchema(sc))
	if err != nil {
		return nil, err
	}
	cols := workload.GeneticsColumns(sc)
	positions := []int{1, len(cols) / 4, len(cols) / 2, len(cols) - 1}
	var rows []PosmapRow
	for _, pos := range positions {
		// Fresh reader per position: cold state.
		desc := sdg.DefaultDescription("G", sdg.FormatCSV, path, sdg.Bag(gt))
		r, err := rawcsv.Open(desc)
		if err != nil {
			return nil, err
		}
		field := cols[pos]
		t0 := time.Now()
		if err := r.Iterate([]string{field}, func(values.Value) error { return nil }); err != nil {
			return nil, err
		}
		cold := time.Since(t0).Seconds()
		t0 = time.Now()
		if err := r.Iterate([]string{field}, func(values.Value) error { return nil }); err != nil {
			return nil, err
		}
		warm := time.Since(t0).Seconds()
		rows = append(rows, PosmapRow{ColumnIndex: pos, ColdSec: cold, WarmSec: warm, Speedup: cold / warm})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E9 — vertical partitioning of the Genetics-shaped relation
// ---------------------------------------------------------------------------

// VPartResult reports the partitioning a wide load forces and the
// query-time stitching cost.
type VPartResult struct {
	Columns        int
	Partitions     int
	LoadSec        float64
	CrossPartSec   float64 // scan projecting columns from distinct partitions
	SinglePartSec  float64 // scan projecting columns from one partition
	RowsScanned    int
	StitchOverhead float64 // cross / single
}

// RunVPart loads a Genetics-shaped relation into the row store and
// measures the cross-partition re-join cost the paper notes for
// PostgreSQL. The width is held near the paper's (the phenomenon only
// exists for very wide relations); rows are capped to keep the load
// bounded.
func RunVPart(dir string, sc workload.Scale, seed int64) (*VPartResult, error) {
	if sc.GeneticsCols < 1800 {
		sc.GeneticsCols = 1800
	}
	if sc.GeneticsRows > 500 {
		sc.GeneticsRows = 500
	}
	path := filepath.Join(dir, "genetics_vpart.csv")
	if err := workload.GenerateGenetics(path, sc, seed); err != nil {
		return nil, err
	}
	iter, attrs, err := csvIterator(path, workload.GeneticsSchema(sc), "Genetics")
	if err != nil {
		return nil, err
	}
	store, err := storagerow.Open(filepath.Join(dir, "rowstore_vpart"))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rep, err := etl.LoadIntoRowStore(store, "Genetics", attrs, iter)
	if err != nil {
		return nil, err
	}
	loadSec := time.Since(t0).Seconds()
	tbl, _ := store.Table("Genetics")
	cols := workload.GeneticsColumns(sc)

	// Columns from far-apart partitions vs adjacent columns.
	cross := []string{cols[1], cols[len(cols)/2], cols[len(cols)-1]}
	single := []string{cols[1], cols[2], cols[3]}
	measure := func(fields []string) (float64, int, error) {
		n := 0
		t0 := time.Now()
		err := tbl.Scan(fields, nil, func(values.Value) error { n++; return nil })
		return time.Since(t0).Seconds(), n, err
	}
	crossSec, n, err := measure(cross)
	if err != nil {
		return nil, err
	}
	singleSec, _, err := measure(single)
	if err != nil {
		return nil, err
	}
	return &VPartResult{
		Columns:        len(attrs),
		Partitions:     rep.Partitions,
		LoadSec:        loadSec,
		CrossPartSec:   crossSec,
		SinglePartSec:  singleSec,
		RowsScanned:    n,
		StitchOverhead: crossSec / singleSec,
	}, nil
}

// ---------------------------------------------------------------------------
// E10 — flattening cost and redundancy
// ---------------------------------------------------------------------------

// FlattenResult reports the flattening step in both modes.
type FlattenResult struct {
	FullSec          float64
	FullRedundancy   float64 // output rows per input object with arrays exploded
	FullBytesRatio   float64 // output bytes / input bytes
	ScalarSec        float64
	ScalarRedundancy float64
	InputObjects     int
	FullOutputRows   int
	ScalarOutputRows int
}

// RunFlatten measures JSON→CSV flattening with arrays exploded (the
// faithful, redundant encoding) and with arrays skipped (the pragmatic
// schema used for the Figure 5 warehouse).
func RunFlatten(dir string, sc workload.Scale, seed int64) (*FlattenResult, error) {
	path := filepath.Join(dir, "regions_flattenexp.json")
	if err := workload.GenerateBrainRegions(path, sc, seed); err != nil {
		return nil, err
	}
	out := &FlattenResult{}
	iter, rawBytes, err := jsonIterator(path)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	full, err := etl.FlattenWith(iter, rawBytes, filepath.Join(dir, "flat_full.csv"), etl.Options{})
	if err != nil {
		return nil, err
	}
	out.FullSec = time.Since(t0).Seconds()
	out.FullRedundancy = full.RedundancyFactor()
	out.FullBytesRatio = float64(full.OutputBytes) / float64(full.InputBytes)
	out.InputObjects = full.InputObjects
	out.FullOutputRows = full.OutputRows

	iter2, rawBytes2, err := jsonIterator(path)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	scalar, err := etl.FlattenWith(iter2, rawBytes2, filepath.Join(dir, "flat_scalar.csv"), etl.Options{SkipArrays: true})
	if err != nil {
		return nil, err
	}
	out.ScalarSec = time.Since(t0).Seconds()
	out.ScalarRedundancy = scalar.RedundancyFactor()
	out.ScalarOutputRows = scalar.OutputRows
	return out, nil
}

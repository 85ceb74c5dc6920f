// Command vidaql runs queries over raw data files from the shell — the
// "analysis begins with ad hoc querying and not by building a database"
// workflow of the paper (§2).
//
// Sources are registered with -csv/-json/-array/-xls flags of the form
// name=path[:schema] where schema is the source description grammar (CSV
// without a schema infers string columns from the header). The query is
// the final argument, or use -i for a simple interactive loop; -sql reads
// it as SQL and -explain prints its optimized plan instead of running it.
// Queries run on the just-in-time executor.
//
//	vidaql -csv 'Emps=emps.csv:Record(Att(id,int), Att(name,string))' \
//	       'for { e <- Emps, e.id > 1 } yield count e'
//
//	vidaql -json Regions=regions.json -sql 'SELECT COUNT(r.id) FROM Regions r'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vida"
)

type sourceFlag struct {
	kind    string
	entries []string
}

func (s *sourceFlag) String() string { return strings.Join(s.entries, ",") }
func (s *sourceFlag) Set(v string) error {
	s.entries = append(s.entries, v)
	return nil
}

func main() {
	var csvs, jsons, arrays, xlss sourceFlag
	flag.Var(&csvs, "csv", "CSV source: name=path[:schema] (repeatable)")
	flag.Var(&jsons, "json", "JSON source: name=path (repeatable)")
	flag.Var(&arrays, "array", "binary array source: name=path:schema (repeatable)")
	flag.Var(&xlss, "xls", "spreadsheet source: name=path:schema (repeatable)")
	sql := flag.Bool("sql", false, "treat the query as SQL")
	explain := flag.Bool("explain", false, "print the optimized plan instead of running")
	interactive := flag.Bool("i", false, "interactive loop")
	flag.Parse()

	eng := vida.New()
	registerAll(eng, csvs.entries, "csv")
	registerAll(eng, jsons.entries, "json")
	registerAll(eng, arrays.entries, "array")
	registerAll(eng, xlss.entries, "xls")

	if *interactive {
		repl(eng, *sql)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "vidaql: exactly one query argument expected (or -i)")
		os.Exit(2)
	}
	query := flag.Arg(0)
	if err := runOne(eng, query, *sql, *explain); err != nil {
		fmt.Fprintln(os.Stderr, "vidaql:", err)
		os.Exit(1)
	}
}

func runOne(eng *vida.Engine, query string, sql, explain bool) error {
	if sql {
		text, err := eng.TranslateSQL(query)
		if err != nil {
			return err
		}
		query = text
	}
	if explain {
		plan, err := eng.Explain(query)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	res, err := eng.Query(query)
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

func printResult(res *vida.Result) {
	rows := res.Rows()
	if len(rows) == 1 && rows[0].Kind() != "record" {
		fmt.Println(rows[0])
		return
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Printf("(%d rows)\n", len(rows))
}

// runStreaming runs one interactive query through the cursor API: rows
// print as they stream off the engine, so large results display
// immediately instead of after full materialization. Session parameters
// (\set) bind the query's $name placeholders.
func runStreaming(eng *vida.Engine, query string, sql bool, params map[string]any) error {
	if sql {
		text, err := eng.TranslateSQL(query)
		if err != nil {
			return err
		}
		query = text
	}
	p, err := eng.Prepare(query)
	if err != nil {
		return err
	}
	// Bind only the parameters this query declares: the session may hold
	// bindings for other queries.
	var args []any
	for _, name := range p.Params() {
		if val, ok := params[name]; ok {
			args = append(args, vida.Named(name, val))
		}
	}
	rows, err := p.RunRows(args...)
	if err != nil {
		return err
	}
	defer rows.Close()
	n := 0
	scalar := false
	for rows.Next() {
		v := rows.Value()
		scalar = n == 0 && v.Kind() != "record"
		fmt.Println(v)
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if !(n == 1 && scalar) {
		fmt.Printf("(%d rows)\n", n)
	}
	return nil
}

// parseParamValue reads a \set value: int, float, bool and null parse
// natively; anything else (optionally quoted) is a string.
func parseParamValue(text string) any {
	switch text {
	case "true":
		return true
	case "false":
		return false
	case "null":
		return nil
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return f
	}
	if len(text) >= 2 && (text[0] == '\'' || text[0] == '"') && text[len(text)-1] == text[0] {
		return text[1 : len(text)-1]
	}
	return text
}

func repl(eng *vida.Engine, sql bool) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	params := map[string]any{}
	fmt.Println("vidaql — \\catalog lists sources, \\stats shows engine counters,")
	fmt.Println("         \\set name value binds $name, \\unset name drops it, \\params lists bindings, \\q quits")
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "\\q":
			return
		case line == "\\catalog":
			fmt.Print(eng.Catalog())
		case line == "\\stats":
			st := eng.Stats()
			fmt.Printf("queries=%d cache-served=%d raw-touch=%d cache-bytes=%d aux-bytes=%d\n",
				st.Queries, st.QueriesFromCache, st.QueriesTouchedRaw, st.Cache.BytesUsed, st.AuxiliaryBytes)
		case line == "\\params":
			for name, val := range params {
				fmt.Printf("$%s = %v\n", name, val)
			}
		case strings.HasPrefix(line, "\\set "):
			rest := strings.TrimSpace(strings.TrimPrefix(line, "\\set "))
			name, val, ok := strings.Cut(rest, " ")
			if !ok {
				fmt.Println("usage: \\set name value")
				break
			}
			params[strings.TrimPrefix(name, "$")] = parseParamValue(strings.TrimSpace(val))
		case strings.HasPrefix(line, "\\unset "):
			delete(params, strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(line, "\\unset ")), "$"))
		case strings.HasPrefix(line, "\\explain "):
			if err := runOne(eng, strings.TrimPrefix(line, "\\explain "), sql, true); err != nil {
				fmt.Println("error:", err)
			}
		default:
			if err := runStreaming(eng, line, sql, params); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("> ")
	}
}

func registerAll(eng *vida.Engine, entries []string, kind string) {
	for _, e := range entries {
		name, rest, ok := strings.Cut(e, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "vidaql: bad -%s %q (want name=path[:schema])\n", kind, e)
			os.Exit(2)
		}
		path, schema, _ := strings.Cut(rest, ":")
		var err error
		switch kind {
		case "csv":
			if schema == "" {
				schema, err = inferCSVSchema(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "vidaql: %s: %v\n", name, err)
					os.Exit(2)
				}
			}
			err = eng.RegisterCSV(name, path, schema, nil)
		case "json":
			err = eng.RegisterJSON(name, path, schema)
		case "array":
			err = eng.RegisterArray(name, path, schema)
		case "xls":
			err = eng.RegisterXLS(name, path, schema)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "vidaql: register %s: %v\n", name, err)
			os.Exit(2)
		}
	}
}

// inferCSVSchema reads the header line and declares every column string —
// the minimal description that lets exploration start; users refine types
// in the schema argument when they need arithmetic.
func inferCSVSchema(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return "", fmt.Errorf("empty file")
	}
	cols := strings.Split(strings.TrimSpace(sc.Text()), ",")
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("Att(%s, string)", strings.TrimSpace(c))
	}
	return "Record(" + strings.Join(parts, ", ") + ")", nil
}

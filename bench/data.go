package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
)

// The generators below write the raw files the engine queries and keep
// the same rows as in-memory columns, which the oracle (oracle.go) folds
// with plain loops. Floats are multiples of 0.25 below 2^20, so every sum
// the workloads ask for is exact in float64 whatever order the engine
// adds them in.

// sizes scales every workload; the smoke test runs the toy sizes.
type sizes struct {
	wideRows    int // rows per wide CSV of raw-cycle
	wideAliases int // aliases registered over the four wide CSVs
	bigRows     int // People, Orders and Events
	appendRows  int // rows appended per refresh of refresh-append
	smallRows   int // Patients of point-serve
	explore     float64
}

var fullSizes = sizes{wideRows: 100_000, wideAliases: 32, bigRows: 300_000, appendRows: 3_000, smallRows: 600, explore: 0.06}
var toySizes = sizes{wideRows: 3_000, wideAliases: 12, bigRows: 12_000, appendRows: 120, smallRows: 600, explore: 0.005}

func quarter(r *rand.Rand, max int) float64 { return float64(r.Intn(max*4)) / 4 }

// csvWriter renders rows with strconv appends; fmt would dominate the
// benchmark's own data-generation time.
type csvWriter struct {
	buf []byte
}

func (w *csvWriter) int(v int64) { w.buf = strconv.AppendInt(w.buf, v, 10); w.buf = append(w.buf, ',') }
func (w *csvWriter) float(v float64) {
	w.buf = strconv.AppendFloat(w.buf, v, 'f', 2, 64)
	w.buf = append(w.buf, ',')
}
func (w *csvWriter) str(s string) { w.buf = append(w.buf, s...); w.buf = append(w.buf, ',') }
func (w *csvWriter) endRow()      { w.buf[len(w.buf)-1] = '\n' }

func padded(prefix string, n, width int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%0*d", prefix, width, i)
	}
	return out
}

// people is the fact table of warm-analytics and encoded-restart.
type people struct {
	path   string
	id     []int64
	age    []int64
	city   []string
	salary []float64
	score  []int64
}

const peopleSchema = "Record(Att(id,int),Att(age,int),Att(city,string),Att(dept,int),Att(salary,float),Att(score,int),Att(name,string))"

const numCities = 60

func genPeople(dir string, n int, seed int64) (*people, error) {
	r := rand.New(rand.NewSource(seed))
	cities := padded("c", numCities, 2)
	p := &people{path: filepath.Join(dir, "people.csv"),
		id: make([]int64, n), age: make([]int64, n), city: make([]string, n),
		salary: make([]float64, n), score: make([]int64, n)}
	w := &csvWriter{buf: append(make([]byte, 0, n*40), "id,age,city,dept,salary,score,name\n"...)}
	for i := 0; i < n; i++ {
		p.id[i] = int64(i)
		p.age[i] = int64(18 + r.Intn(70))
		p.city[i] = cities[r.Intn(numCities)]
		p.salary[i] = quarter(r, 100_000)
		p.score[i] = int64(r.Intn(100_000))
		w.int(p.id[i])
		w.int(p.age[i])
		w.str(p.city[i])
		w.int(int64(r.Intn(20))) // dept
		w.float(p.salary[i])
		w.int(p.score[i])
		w.buf = append(w.buf, 'n')
		w.int(p.id[i])
		w.endRow()
	}
	return p, os.WriteFile(p.path, w.buf, 0o644)
}

// orders joins to people on pid.
type orders struct {
	path   string
	pid    []int64
	amount []float64
	qty    []int64
}

const ordersSchema = "Record(Att(oid,int),Att(pid,int),Att(amount,float),Att(qty,int),Att(status,string))"

func genOrders(dir string, n, nPeople int, seed int64) (*orders, error) {
	r := rand.New(rand.NewSource(seed + 1))
	o := &orders{path: filepath.Join(dir, "orders.csv"),
		pid: make([]int64, n), amount: make([]float64, n), qty: make([]int64, n)}
	status := padded("s", 5, 1)
	w := &csvWriter{buf: append(make([]byte, 0, n*32), "oid,pid,amount,qty,status\n"...)}
	for i := 0; i < n; i++ {
		o.pid[i] = int64(r.Intn(nPeople))
		o.amount[i] = quarter(r, 10_000)
		o.qty[i] = int64(1 + r.Intn(9))
		w.int(int64(i))
		w.int(o.pid[i])
		w.float(o.amount[i])
		w.int(o.qty[i])
		w.str(status[r.Intn(len(status))])
		w.endRow()
	}
	return o, os.WriteFile(o.path, w.buf, 0o644)
}

// events is the 12-column time series of raw-cycle (four files of it) and
// refresh-append (one file that grows). ts is clustered: it rises with the
// row number, as an append-only log's would.
type events struct {
	path string
	r    *rand.Rand
	ts   []int64
	k2   []int64
	s1   []string
	f    [4][]float64
}

const eventsSchema = "Record(Att(id,int),Att(ts,int),Att(k1,int),Att(k2,int),Att(k3,int)," +
	"Att(f1,float),Att(f2,float),Att(f3,float),Att(f4,float),Att(s1,string),Att(s2,string),Att(s3,string))"

const eventsHeader = "id,ts,k1,k2,k3,f1,f2,f3,f4,s1,s2,s3\n"

const numGroups = 60

var eventGroups = padded("g", numGroups, 2)

func genEvents(path string, n int, seed int64) (*events, error) {
	e := &events{path: path, r: rand.New(rand.NewSource(seed))}
	buf := e.appendRows(append(make([]byte, 0, n*80), eventsHeader...), n)
	return e, os.WriteFile(path, buf, 0o644)
}

// appendRows draws n more rows, keeps them in the columns and returns
// their CSV text appended to buf.
func (e *events) appendRows(buf []byte, n int) []byte {
	w := &csvWriter{buf: buf}
	for i := 0; i < n; i++ {
		row := len(e.ts)
		ts := int64(row*10 + e.r.Intn(10))
		k2 := int64(e.r.Intn(1000))
		s1 := eventGroups[e.r.Intn(numGroups)]
		e.ts, e.k2, e.s1 = append(e.ts, ts), append(e.k2, k2), append(e.s1, s1)
		w.int(int64(row))
		w.int(ts)
		w.int(int64(e.r.Intn(60)))
		w.int(k2)
		w.int(int64(e.r.Intn(1_000_000)))
		for c := range e.f {
			v := quarter(e.r, 1000)
			e.f[c] = append(e.f[c], v)
			w.float(v)
		}
		w.str(s1)
		w.str("alpha-beta")
		w.buf = append(w.buf, "tag"...)
		w.int(int64(e.r.Intn(100_000)))
		w.endRow()
	}
	return w.buf
}

// patients is the 600-row table of point-serve.
type patients struct {
	path   string
	id     []int64
	age    []int64
	gender []string
	city   []string
	visits []int64
	bmi    []float64
}

const patientsSchema = "Record(Att(id,int),Att(age,int),Att(gender,string),Att(city,string),Att(visits,int),Att(bmi,float))"

var patientCities = []string{"lausanne", "geneva", "zurich", "bern", "basel", "lyon", "milan", "munich"}

func genPatients(dir string, n int, seed int64) (*patients, error) {
	r := rand.New(rand.NewSource(seed))
	p := &patients{path: filepath.Join(dir, "patients.csv")}
	w := &csvWriter{buf: []byte("id,age,gender,city,visits,bmi\n")}
	for i := 0; i < n; i++ {
		age, visits, bmi := int64(18+r.Intn(80)), int64(r.Intn(40)), 16+quarter(r, 24)
		gender, city := "m", patientCities[r.Intn(len(patientCities))]
		if r.Intn(2) == 0 {
			gender = "f"
		}
		p.id, p.age, p.gender = append(p.id, int64(i)), append(p.age, age), append(p.gender, gender)
		p.city, p.visits, p.bmi = append(p.city, city), append(p.visits, visits), append(p.bmi, bmi)
		w.int(int64(i))
		w.int(age)
		w.str(gender)
		w.str(city)
		w.int(visits)
		w.float(bmi)
		w.endRow()
	}
	return p, os.WriteFile(p.path, w.buf, 0o644)
}

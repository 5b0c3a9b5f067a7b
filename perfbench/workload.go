package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ftpde/internal/failure"
	"ftpde/internal/service"
)

// Instance is one distinct request: SQL text generated from a template with
// seeded substitution parameters. Class groups instances of one template
// (q1/q3/q5 on the TPC-H workloads, s1..s5 on short-queries).
type Instance struct {
	Class string `json:"class"`
	SQL   string `json:"sql"`
}

// Workload is a traffic mix: the distinct instances, the weighted classes
// requests are drawn from, and the server configuration they run against.
type Workload struct {
	Name      string
	Instances []Instance
	// classes lists, per class, the indices of its instances in the order
	// they take turns; weights gives each class's share of requests, and
	// deck holds each class index as many times as its weight.
	classes [][]int
	weights []int
	deck    []int

	// The server's failure injection (0: none) and the cost model it plans
	// with. The replay plans with the same values.
	InjectMTBF  float64
	ModelMTBF   float64
	ModelMTTR   float64
	CPUPerRow   float64
	WritePerRow float64
}

// Request returns the instance index of request i of the seeded sequence.
// The sequence is a pure function of (seed, i), so an end-to-end run and the
// traced replay issue the same requests in the same order. It is dealt in
// rounds: each round holds every class as many times as its weight, and each
// class cycles through its instances in an order drawn from the seed. The
// class order within a round is shuffled by round number alone, so every
// seed sends the same pattern of long and short queries — which decides how
// often the two clients' long queries overlap — and seeds differ in
// parameters, not in mix or pattern.
func (w *Workload) Request(i int64) int {
	round, pos := i/int64(len(w.deck)), int(i%int64(len(w.deck)))
	deck := append([]int(nil), w.deck...)
	rng := rand.New(rand.NewSource(int64(splitmix(uint64(round)))))
	rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
	c := deck[pos]
	occ := round * int64(w.weights[c])
	for _, d := range deck[:pos] {
		if d == c {
			occ++
		}
	}
	idx := w.classes[c]
	return idx[occ%int64(len(idx))]
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// addClass adds a class of instances at the given weight; rng orders the
// instances' turns.
func (w *Workload) addClass(rng *rand.Rand, weight int, insts []Instance) {
	idx := make([]int, len(insts))
	for i, in := range insts {
		idx[i] = len(w.Instances)
		w.Instances = append(w.Instances, in)
	}
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	c := len(w.classes)
	w.classes = append(w.classes, idx)
	w.weights = append(w.weights, weight)
	for k := 0; k < weight; k++ {
		w.deck = append(w.deck, c)
	}
}

// Workload names.
const (
	wlTPCHMix      = "tpch-mix"
	wlTPCHFaults   = "tpch-faults"
	wlShortQueries = "short-queries"
)

// Instances per class. Q3 gets the same number per market segment, so seeds
// differ in dates and order but not in how much of each segment they join.
// Q5 has no substitution parameter in the service's template, so it
// contributes one instance.
const (
	q1Instances    = 4
	q3PerSegment   = 2
	shortInstances = 4
)

// tpchSegments is the generator's c_mktsegment domain.
var tpchSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

// NewWorkload builds the named workload's instances from seed.
func NewWorkload(name string, seed int64) (*Workload, error) {
	// The service's default model (one-hour MTBF, 1 s MTTR, ftsql's cost
	// units), pinned so the server and the replay plan alike.
	w := &Workload{Name: name, ModelMTBF: failure.OneHour, ModelMTTR: 1, CPUPerRow: 1e-6, WritePerRow: 1.7e-5}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case wlTPCHMix, wlTPCHFaults:
		if err := w.addTPCH(rng); err != nil {
			return nil, err
		}
		if name == wlTPCHFaults {
			w.InjectMTBF = 1
			w.ModelMTBF = 1
			w.ModelMTTR = 0.02
			w.WritePerRow = 9e-8
		}
	case wlShortQueries:
		w.addShort(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlTPCHMix, wlTPCHFaults, wlShortQueries)
	}
	return w, nil
}

// addTPCH instantiates the service's Q1/Q3/Q5 at weights 1:2:1. The
// parameter domains are day numbers centred on the template's literal with
// the widths the TPC-H specification gives them: Q1's DELTA spans 60 days,
// Q3's DATE one month; Q3 covers each of the generator's five segments.
func (w *Workload) addTPCH(rng *rand.Rand) error {
	tmpl := map[string]string{}
	for _, q := range service.TPCHQueries() {
		tmpl[q.Name] = q.Text
	}
	q1, err := distinct("q1", q1Instances, func() (string, error) {
		return substitute(tmpl["Q1"], "l_shipdate <= 1200",
			fmt.Sprintf("l_shipdate <= %d", 1170+rng.Intn(61)))
	})
	if err != nil {
		return err
	}
	var q3 []Instance
	for _, seg := range tpchSegments {
		insts, err := distinct("q3", q3PerSegment, func() (string, error) {
			return substitute(tmpl["Q3"], "c_mktsegment = 'BUILDING' AND o_orderdate < 1200",
				fmt.Sprintf("c_mktsegment = '%s' AND o_orderdate < %d", seg, 1185+rng.Intn(31)))
		})
		if err != nil {
			return err
		}
		q3 = append(q3, insts...)
	}
	if tmpl["Q5"] == "" {
		return fmt.Errorf("service.TPCHQueries has no Q5")
	}
	w.addClass(rng, 1, q1)
	w.addClass(rng, 2, q3)
	w.addClass(rng, 1, []Instance{{Class: "q5", SQL: tmpl["Q5"]}})
	return nil
}

// distinct draws n different instances of one class.
func distinct(class string, n int, gen func() (string, error)) ([]Instance, error) {
	seen := map[string]bool{}
	var out []Instance
	for len(out) < n {
		text, err := gen()
		if err != nil {
			return nil, err
		}
		if !seen[text] {
			seen[text] = true
			out = append(out, Instance{Class: class, SQL: text})
		}
	}
	return out, nil
}

// substitute replaces the template's one parameterized predicate. A
// template that no longer contains it is an error rather than a silently
// unparameterized workload.
func substitute(text, old, repl string) (string, error) {
	if strings.Count(text, old) != 1 {
		return "", fmt.Errorf("template lacks predicate %q", old)
	}
	return strings.Replace(text, old, repl, 1), nil
}

// addShort instantiates five templates over region, nation and supplier —
// a filter, a grouped scan, and one- to three-way joins — each with
// parameters from the generator's key domains (5 regions, 25 nations,
// 100 suppliers at sf 0.01).
func (w *Workload) addShort(rng *rand.Rand) {
	templates := []struct {
		class string
		gen   func() string
	}{
		{"s1", func() string {
			return fmt.Sprintf("SELECT n_nationkey, n_name FROM nation WHERE n_regionkey = %d", rng.Intn(5))
		}},
		{"s2", func() string {
			return fmt.Sprintf("SELECT s_nationkey, COUNT(*) AS cnt FROM supplier WHERE s_suppkey < %d GROUP BY s_nationkey", 20+rng.Intn(81))
		}},
		{"s3", func() string {
			return fmt.Sprintf("SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE n_nationkey >= %d", rng.Intn(25))
		}},
		{"s4", func() string {
			return fmt.Sprintf("SELECT n_name, COUNT(*) AS cnt FROM supplier JOIN nation ON s_nationkey = n_nationkey WHERE n_regionkey = %d GROUP BY n_name", rng.Intn(5))
		}},
		{"s5", func() string {
			return fmt.Sprintf("SELECT r_name, COUNT(*) AS cnt FROM supplier JOIN nation ON s_nationkey = n_nationkey JOIN region ON n_regionkey = r_regionkey WHERE s_suppkey < %d GROUP BY r_name", 20+rng.Intn(81))
		}},
	}
	for _, t := range templates {
		insts, _ := distinct(t.class, shortInstances, func() (string, error) { return t.gen(), nil })
		w.addClass(rng, 1, insts)
	}
}

// Package experiments reproduces every figure of the paper's evaluation
// (Section 7). Each RunFigN function regenerates the series of one paper
// figure — same sweeps, same algorithms, same metrics (I/O accesses, CPU
// time, peak search-structure memory) — at a configurable scale factor so
// that both quick sanity runs and full-size reproductions use the same
// code path. cmd/benchfig prints the tables; bench_test.go wraps each
// runner in a testing.B benchmark.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"fairassign/internal/assign"
)

// Params controls an experiment run.
type Params struct {
	// Scale multiplies the paper's cardinalities (1.0 = full size).
	Scale float64
	// Seed drives all data generation.
	Seed int64
}

// Paper defaults (Table 2, bold values).
const (
	defaultFuncs   = 5000
	defaultObjects = 100000
	defaultDims    = 4
	defaultBuffer  = 0.02
	defaultOmega   = 0.025
)

func (p Params) scaled(n int) int {
	v := int(float64(n) * p.Scale)
	if v < 16 {
		v = 16
	}
	return v
}

// Outcome is one algorithm's measurement at one sweep point.
type Outcome struct {
	IO    int64
	CPUs  float64 // seconds
	MemMB float64
	Pairs int64
}

// Row is one sweep point: an x value and one outcome per algorithm.
type Row struct {
	X        string
	Outcomes map[string]Outcome
}

// Result is a reproduced figure.
type Result struct {
	Figure   string
	Title    string
	XLabel   string
	AlgOrder []string
	Rows     []Row
	Notes    string
}

// algorithm couples a display name with its runner.
type algorithm struct {
	name string
	run  func(*assign.Problem, assign.Config) (*assign.Result, error)
}

var (
	algSB    = algorithm{"SB", assign.SB}
	algSBUpd = algorithm{"SB-UpdateSkyline", assign.SBBasic}
	algSBDel = algorithm{"SB-DeltaSky", assign.SBDeltaSky}
	algBF    = algorithm{"BruteForce", assign.BruteForce}
	algChain = algorithm{"Chain", assign.Chain}
	algTwoSk = algorithm{"SB-TwoSkylines", assign.SBTwoSkylines}
	algSBAlt = algorithm{"SB-alt", assign.SBAlt}
	algSBDkF = algorithm{"SB", assign.SBDiskFuncs} // F on disk (Fig 17)
	algBFDkF = algorithm{"BruteForce", assign.BruteForceDiskFuncs}
	algChDkF = algorithm{"Chain", assign.ChainDiskFuncs}
)

func outcomeOf(r *assign.Result) Outcome {
	return Outcome{
		IO:    r.Stats.IO.Accesses(),
		CPUs:  r.Stats.CPUTime.Seconds(),
		MemMB: float64(r.Stats.PeakMem) / 1e6,
		Pairs: r.Stats.Pairs,
	}
}

// runPoint executes every algorithm on one problem instance.
func runPoint(p *assign.Problem, cfg assign.Config, algs []algorithm) (map[string]Outcome, error) {
	out := make(map[string]Outcome, len(algs))
	var wantPairs int64 = -1
	for _, a := range algs {
		r, err := a.run(p, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		if wantPairs == -1 {
			wantPairs = r.Stats.Pairs
		} else if r.Stats.Pairs != wantPairs {
			return nil, fmt.Errorf("%s produced %d pairs, others produced %d",
				a.name, r.Stats.Pairs, wantPairs)
		}
		out[a.name] = outcomeOf(r)
	}
	return out, nil
}

func names(algs []algorithm) []string {
	out := make([]string, len(algs))
	for i, a := range algs {
		out[i] = a.name
	}
	return out
}

func defaultCfg() assign.Config {
	return assign.Config{BufferFrac: defaultBuffer, OmegaFrac: defaultOmega}
}

// Format renders the figure as aligned text tables, one block per metric.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.Figure, r.Title)
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	metrics := []struct {
		label string
		pick  func(Outcome) string
	}{
		{"I/O accesses", func(o Outcome) string { return fmt.Sprintf("%d", o.IO) }},
		{"CPU time (s)", func(o Outcome) string { return fmt.Sprintf("%.3f", o.CPUs) }},
		{"memory (MB)", func(o Outcome) string { return fmt.Sprintf("%.3f", o.MemMB) }},
	}
	for _, m := range metrics {
		fmt.Fprintf(&b, "\n  [%s]\n", m.label)
		fmt.Fprintf(&b, "  %-24s", r.XLabel)
		for _, a := range r.AlgOrder {
			fmt.Fprintf(&b, "%20s", a)
		}
		b.WriteByte('\n')
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "  %-24s", row.X)
			for _, a := range r.AlgOrder {
				fmt.Fprintf(&b, "%20s", m.pick(row.Outcomes[a]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Registry maps figure identifiers to runners, for cmd/benchfig.
var Registry = map[string]func(Params) ([]*Result, error){
	"fig8":  Fig8,
	"fig9":  Fig9,
	"fig10": Fig10,
	"fig11": Fig11,
	"fig12": Fig12,
	"fig13": Fig13,
	"fig14": Fig14,
	"fig15": Fig15,
	"fig16": Fig16,
	"fig17": Fig17,
}

// FigureIDs returns the registry keys in order.
func FigureIDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All runs every figure.
func All(p Params) ([]*Result, error) {
	var out []*Result
	for _, id := range FigureIDs() {
		rs, err := Registry[id](p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, rs...)
	}
	return out, nil
}

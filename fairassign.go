// Package fairassign computes fair one-to-one assignments between user
// preference functions and multidimensional objects, implementing the
// skyline-based stable-matching algorithm of "A Fair Assignment Algorithm
// for Multiple Preference Queries" (U, Mamoulis, Mouratidis — PVLDB 2(1),
// 2009) together with the paper's baselines and problem variants.
//
// Model. Each object has D attribute values under a "larger is better"
// convention; each user expresses a monotone preference function with
// normalized weights (Σα = 1) — linear by default (f(o) = Σ α_i·o_i, the
// paper's model), or any pluggable monotone family via Function.Scorer:
// order-weighted averages (OWA, subsuming the egalitarian Minimax, Best,
// and Median), Chebyshev weighted max, and Lp norms. When many users query
// simultaneously, an object can only be granted to one of them, and the
// system must produce the stable matching: iteratively, the
// (function, object) pair with the globally highest score is assigned and
// removed. Capacities (identical instances of objects or identical users)
// and priorities (γ multipliers, e.g. seniority classes) are supported.
//
// Quick start:
//
//	objects := fairassign.GenerateObjects(fairassign.AntiCorrelated, 10000, 4, 1)
//	functions := fairassign.GenerateFunctions(500, 4, 2)
//	solver, err := fairassign.NewSolver(objects, functions, fairassign.Options{})
//	if err != nil { ... }
//	result, err := solver.Solve()
//	for _, pair := range result.Pairs { ... }
//
// The default algorithm is SB (the paper's contribution). The baselines
// (BruteForce, Chain), the disk-resident-function variant (SBAlt) and the
// prioritized two-skyline variant (TwoSkylines) are selectable through
// Options.Algorithm for comparison studies; all produce the identical
// stable matching and differ only in cost.
//
// Concurrency. A solve searches on one goroutine; only its STR index
// build fans out over all cores. SolveBatch runs many independent
// problems concurrently for multi-tenant serving, up to Parallelism at
// a time.
//
// Dynamic workloads. NewWorkspace is the long-lived incremental form of
// the solver: it builds the index and search state once and then
// repairs the stable matching in place as objects and functions arrive
// or depart (AddObject, RemoveObject, AddFunction, RemoveFunction) —
// orders of magnitude cheaper than re-solving, with the identical
// matching. A Workspace is safe for concurrent use under a
// single-writer / many-readers contract: mutations are serialized
// internally, and Workspace.Snapshot returns a View — an immutable,
// epoch-pinned observation of the matching, population, and object
// index that stays consistent (byte-identical output) no matter how
// the workspace mutates afterwards. See the Workspace and View types.
package fairassign

import (
	"fmt"
	"time"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/geom"
)

// Object is a database object: an identifier, D attribute values (larger
// is better), and an optional capacity (number of identical instances;
// 0 means 1).
type Object struct {
	ID         uint64
	Attributes []float64
	Capacity   int
}

// Function is a user preference: an identifier, D non-negative weights,
// an optional priority Gamma (0 means 1), an optional capacity, and an
// optional Scorer selecting the preference family the weights
// parameterize. Weights are normalized to sum to 1 by NewSolver unless
// they already do (within WeightNormalizationTolerance), so that no
// user is favored (Section 3 of the paper); Gamma is the sanctioned way
// to express priority.
//
// A nil Scorer means the paper's linear model f(o) = Σ wᵢ·oᵢ. Setting
// Scorer (OWA, Minimax, Best, Median, Chebyshev, Lp — see the Scorer
// type) reinterprets the weights under that monotone family; every
// algorithm, the Workspace, and the query helpers accept any mix of
// families in one problem.
type Function struct {
	ID       uint64
	Weights  []float64
	Gamma    float64
	Capacity int
	Scorer   *Scorer
}

// Pair is one unit of assignment.
type Pair struct {
	FunctionID uint64
	ObjectID   uint64
	Score      float64
}

// Stats reports the cost of a Solve call using the paper's metrics.
type Stats struct {
	IOAccesses      int64         // simulated-disk page accesses (buffer misses)
	CPUTime         time.Duration // wall-clock compute time
	PeakMemoryBytes int64         // high-water mark of search structures
	Loops           int64         // algorithm outer iterations
	TopKSearches    int64         // top-1 / TA searches issued
}

// Result is the output of Solve.
type Result struct {
	Pairs []Pair
	Stats Stats
}

// Algorithm selects the assignment algorithm.
type Algorithm string

// Available algorithms. All produce the same stable matching.
const (
	// SB is the paper's skyline-based algorithm (Algorithm 3): the
	// recommended default.
	SB Algorithm = "sb"
	// BruteForce keeps one resumable top-1 search per function
	// (Section 4.1 baseline).
	BruteForce Algorithm = "bruteforce"
	// Chain adapts the spatial Chain algorithm (Section 2.1 baseline).
	Chain Algorithm = "chain"
	// SBAlt batches best-pair search over disk-resident coefficient
	// lists (Section 7.6) — for function sets too large for memory.
	SBAlt Algorithm = "sbalt"
	// TwoSkylines maintains a second skyline over the functions
	// (Section 6.2) — fastest for prioritized assignments.
	TwoSkylines Algorithm = "twoskylines"
)

// Options tunes a Solver.
type Options struct {
	// Algorithm to run (default SB).
	Algorithm Algorithm
	// PageSize of the simulated disk in bytes (default 4096).
	PageSize int
	// BufferFraction sizes the LRU buffer as a fraction of the object
	// index (default 0.02; negative disables buffering).
	BufferFraction float64
	// OmegaFraction is ω, the bound on resumable-search queues as a
	// fraction of |F| (default 0.025).
	OmegaFraction float64
	// NormalizeWeights rescales every function's weights to sum to 1
	// (default true via zero value: set SkipNormalization to opt out).
	SkipNormalization bool
	// WALDir makes a Workspace durable: it is the directory holding
	// snapshot files and write-ahead-log segments. Every Apply batch
	// (and every single mutation) is encoded, checksummed, and fsynced
	// into the log before it is acknowledged, and an initial snapshot is
	// written at construction, so a crash at any moment recovers the
	// exact acknowledged state through OpenWorkspace. Ignored by Solver.
	// See the package's durability section in the README for file
	// formats and recovery semantics.
	WALDir string
}

// assignConfig maps public options to the internal configuration — the
// single site, so Solver, NewWorkspace, OpenWorkspace and
// NewProgressiveMatcher cannot drift.
func (o Options) assignConfig() assign.Config {
	return assign.Config{
		PageSize:   o.PageSize,
		BufferFrac: o.BufferFraction,
		OmegaFrac:  o.OmegaFraction,
		WALDir:     o.WALDir,
	}
}

// Solver holds a validated problem instance.
type Solver struct {
	problem *assign.Problem
	opts    Options
	run     func(*assign.Problem, assign.Config) (*assign.Result, error)
}

// buildProblem maps the public inputs onto one internal problem: the
// shared dimensionality, a copy of every object, and every function
// resolved under opts. NewSolver and NewWorkspace both start here.
func buildProblem(objects []Object, functions []Function, opts Options) (*assign.Problem, error) {
	if len(objects) == 0 && len(functions) == 0 {
		return nil, fmt.Errorf("fairassign: nothing to assign")
	}
	dims := problemDims(objects, functions)
	if dims == 0 {
		return nil, fmt.Errorf("fairassign: cannot derive dimensionality (no objects and no function carries explicit weights)")
	}
	p := &assign.Problem{Dims: dims}
	for _, o := range objects {
		p.Objects = append(p.Objects, assign.Object{
			ID:       o.ID,
			Point:    geom.Point(o.Attributes).Clone(),
			Capacity: o.Capacity,
		})
	}
	for _, f := range functions {
		af, err := resolveFunction(f, opts, dims)
		if err != nil {
			return nil, err
		}
		p.Functions = append(p.Functions, af)
	}
	return p, nil
}

// NewSolver validates the inputs and prepares a solver. All objects and
// functions must share one dimensionality; IDs must be unique per side.
func NewSolver(objects []Object, functions []Function, opts Options) (*Solver, error) {
	p, err := buildProblem(objects, functions, opts)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	run, err := runnerFor(opts.Algorithm)
	if err != nil {
		return nil, err
	}
	return &Solver{problem: p, opts: opts, run: run}, nil
}

func runnerFor(a Algorithm) (func(*assign.Problem, assign.Config) (*assign.Result, error), error) {
	switch a {
	case "", SB:
		return assign.SB, nil
	case BruteForce:
		return assign.BruteForce, nil
	case Chain:
		return assign.Chain, nil
	case SBAlt:
		return assign.SBAlt, nil
	case TwoSkylines:
		return assign.SBTwoSkylines, nil
	default:
		return nil, fmt.Errorf("fairassign: unknown algorithm %q", a)
	}
}

// Dims returns the problem dimensionality.
func (s *Solver) Dims() int { return s.problem.Dims }

// Solve computes the stable assignment.
func (s *Solver) Solve() (*Result, error) {
	cfg := s.opts.assignConfig()
	// Solvers are one-shot: durability is a Workspace concern.
	cfg.WALDir = ""
	r, err := s.run(s.problem, cfg)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Stats: Stats{
			IOAccesses:      r.Stats.IO.Accesses(),
			CPUTime:         r.Stats.CPUTime,
			PeakMemoryBytes: r.Stats.PeakMem,
			Loops:           r.Stats.Loops,
			TopKSearches:    r.Stats.TopKRuns,
		},
	}
	for _, pr := range r.Pairs {
		out.Pairs = append(out.Pairs, Pair{FunctionID: pr.FuncID, ObjectID: pr.ObjectID, Score: pr.Score})
	}
	return out, nil
}

// Verify checks that pairs form a stable matching for this solver's
// problem (Definition 1); useful in tests and audits.
func (s *Solver) Verify(pairs []Pair) error {
	conv := make([]assign.Pair, len(pairs))
	for i, pr := range pairs {
		conv[i] = assign.Pair{FuncID: pr.FunctionID, ObjectID: pr.ObjectID, Score: pr.Score}
	}
	return assign.IsStable(s.problem, conv)
}

// Distribution names a synthetic object distribution.
type Distribution string

// Available distributions (Section 7 workloads).
const (
	Independent    Distribution = "independent"
	Correlated     Distribution = "correlated"
	AntiCorrelated Distribution = "anti"
	ZillowLike     Distribution = "zillow"
	NBALike        Distribution = "nba"
)

// GenerateObjects produces n synthetic objects of the given distribution
// in [0,1]^dims (ZillowLike and NBALike are always 5-dimensional).
func GenerateObjects(kind Distribution, n, dims int, seed int64) []Object {
	var objs []assign.Object
	switch kind {
	case Correlated:
		objs = datagen.Objects(datagen.Correlated, n, dims, seed)
	case AntiCorrelated:
		objs = datagen.Objects(datagen.AntiCorrelated, n, dims, seed)
	case ZillowLike:
		objs = datagen.ZillowLike(n, seed)
	case NBALike:
		objs = datagen.NBALikeN(n, seed)
	default:
		objs = datagen.Objects(datagen.Independent, n, dims, seed)
	}
	out := make([]Object, len(objs))
	for i, o := range objs {
		out[i] = Object{ID: o.ID, Attributes: o.Point, Capacity: o.Capacity}
	}
	return out
}

// GenerateFunctions produces n normalized preference functions with
// independently drawn weights.
func GenerateFunctions(n, dims int, seed int64) []Function {
	funcs := datagen.Functions(n, dims, seed)
	out := make([]Function, len(funcs))
	for i, f := range funcs {
		out[i] = Function{ID: f.ID, Weights: f.Weights, Gamma: f.Gamma, Capacity: f.Capacity}
	}
	return out
}

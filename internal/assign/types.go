// Package assign implements the paper's core contribution: computing the
// stable 1-1 matching between a set of preference functions F and a set
// of multidimensional objects O (Sections 3–6).
//
// Algorithms provided:
//
//   - SB            — the fully optimized skyline-based algorithm
//     (Algorithm 3): I/O-optimal UpdateSkyline maintenance, resumable
//     Ω-bounded TA best-function search, multi-pair emission per loop;
//   - SBBasic       — Algorithm 1 with UpdateSkyline but fresh TA per
//     object and one pair per loop ("SB-UpdateSkyline" in Fig. 8);
//   - SBDeltaSky    — Algorithm 1 with DeltaSky skyline maintenance
//     ("SB-DeltaSky" in Fig. 8);
//   - BruteForce    — one resumable BRS top-1 searcher per function
//     (Section 4.1);
//   - Chain         — the adaptation of the spatial Chain algorithm with
//     a main-memory function R-tree (Sections 2.1, 7);
//   - SBAlt         — SB with disk-resident coefficient lists and batch
//     best-pair search (Section 7.6);
//   - SBTwoSkylines — the prioritized variant computing a skyline on both
//     sides (Section 6.2);
//   - Oracle        — the definitional greedy over all |F|·|O| scored
//     pairs, and GaleShapley — classic SMP; both used to verify
//     stability.
//
// Capacities (Section 6.1) and priorities γ (Section 6.2) are supported
// by every algorithm.
package assign

import (
	"fmt"
	"math"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/score"
	"fairassign/internal/vfs"
)

// Object is a database object: a D-dimensional feature vector with an
// optional capacity (number of identical instances, Section 6.1).
type Object struct {
	ID       uint64
	Point    geom.Point
	Capacity int // <= 0 means 1
}

func (o Object) capacity() int {
	if o.Capacity <= 0 {
		return 1
	}
	return o.Capacity
}

// Function is a user preference: normalized weights (Σα = 1), an optional
// priority γ (Section 6.2, 0 means 1), an optional capacity, and the
// scoring family the weights parameterize (zero value: the paper's
// linear model; see internal/score for OWA, Chebyshev, and Lp).
type Function struct {
	ID       uint64
	Weights  []float64
	Gamma    float64 // priority; <= 0 means 1
	Capacity int     // <= 0 means 1
	Fam      score.Family
}

func (f Function) gamma() float64 {
	if f.Gamma <= 0 {
		return 1
	}
	return f.Gamma
}

func (f Function) capacity() int {
	if f.Capacity <= 0 {
		return 1
	}
	return f.Capacity
}

// Effective returns the effective coefficients used throughout search:
// α'_i = α_i·γ for the degree-1 homogeneous families (Equation 2
// reduces to Equation 1 when γ = 1), and α_i·γᵖ for Lp, so that
// scoring the effective weights always equals γ·f(o).
func (f Function) Effective() []float64 {
	g := f.Fam.GammaScale(f.gamma())
	w := make([]float64, len(f.Weights))
	for i, a := range f.Weights {
		w[i] = a * g
	}
	return w
}

// Score returns f(o) including the priority factor.
func (f Function) Score(o geom.Point) float64 {
	return f.gamma() * score.Eval(f.Fam, f.Weights, o)
}

// Scorer returns the function's search-side scorer: its family over the
// effective (γ-folded) weights. Allocates; hot paths keep the effective
// weights in shared backing arrays instead.
func (f Function) Scorer() score.Scorer {
	return score.Scorer{Fam: f.Fam, W: f.Effective()}
}

// Pair is one unit of assignment: function FuncID gets one instance of
// object ObjectID at the given score.
type Pair struct {
	FuncID   uint64
	ObjectID uint64
	Score    float64
}

// Problem bundles one assignment instance.
type Problem struct {
	Dims      int
	Objects   []Object
	Functions []Function
}

// Validate checks structural consistency and input sanity: shared
// dimensionality, unique per-side IDs, finite attribute/weight/γ values
// (non-finite inputs would silently corrupt the R-tree MBRs and the TA
// bounds), and non-negative capacities — the same rules the CSV loaders
// enforce, typed with the ErrBad* sentinels from mutation.go and
// ErrDuplicateID.
func (p *Problem) Validate() error {
	if p.Dims < 1 {
		return fmt.Errorf("assign: dims must be >= 1, got %d", p.Dims)
	}
	seenO := make(map[uint64]bool, len(p.Objects))
	for i := range p.Objects {
		o := &p.Objects[i]
		if err := validateObject(o, p.Dims); err != nil {
			return err
		}
		if seenO[o.ID] {
			return fmt.Errorf("%w: object %d", ErrDuplicateID, o.ID)
		}
		seenO[o.ID] = true
	}
	seenF := make(map[uint64]bool, len(p.Functions))
	for i := range p.Functions {
		f := &p.Functions[i]
		if err := validateFunction(f, p.Dims); err != nil {
			return err
		}
		if seenF[f.ID] {
			return fmt.Errorf("%w: function %d", ErrDuplicateID, f.ID)
		}
		seenF[f.ID] = true
	}
	return nil
}

// validateObject checks one object on its own: its dimensionality,
// finite attributes and a non-negative capacity.
func validateObject(o *Object, dims int) error {
	if len(o.Point) != dims {
		return fmt.Errorf("assign: object %d has %d dims, want %d", o.ID, len(o.Point), dims)
	}
	for _, v := range o.Point {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: object %d", ErrBadPoint, o.ID)
		}
	}
	if o.Capacity < 0 {
		return fmt.Errorf("%w: object %d has capacity %d", ErrBadCapacity, o.ID, o.Capacity)
	}
	return nil
}

// validateFunction checks one function on its own: its dimensionality
// and family, finite non-negative weights, a finite γ and a
// non-negative capacity.
func validateFunction(f *Function, dims int) error {
	if len(f.Weights) != dims {
		return fmt.Errorf("assign: function %d has %d weights, want %d", f.ID, len(f.Weights), dims)
	}
	if err := f.Fam.Validate(); err != nil {
		return fmt.Errorf("assign: function %d: %w", f.ID, err)
	}
	for _, w := range f.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: function %d has non-finite weight", ErrBadWeight, f.ID)
		}
		if w < 0 {
			return fmt.Errorf("%w: function %d has negative weight", ErrBadWeight, f.ID)
		}
	}
	if math.IsNaN(f.Gamma) || math.IsInf(f.Gamma, 0) {
		return fmt.Errorf("%w: function %d", ErrBadGamma, f.ID)
	}
	if f.Capacity < 0 {
		return fmt.Errorf("%w: function %d has capacity %d", ErrBadCapacity, f.ID, f.Capacity)
	}
	return nil
}

// Config tunes the execution environment of the disk-based algorithms.
type Config struct {
	// PageSize of the simulated disk (default 4096, the paper's setting).
	PageSize int
	// BufferFrac sizes the object-index LRU buffer as a fraction of the
	// index pages (default 0.02, the paper's 2 %). Negative means zero
	// buffering; zero means default.
	BufferFrac float64
	// OmegaFrac is ω: the TA candidate queue holds Ω = ω·|F| entries
	// (default 0.025, the paper's tuned 2.5 %).
	OmegaFrac float64
	// FuncBufferFrac sizes the buffer over disk-resident function lists
	// for SBAlt (default = BufferFrac).
	FuncBufferFrac float64
	// WALDir makes a workspace durable: it is the directory holding
	// snapshot files and write-ahead-log segments. Every Apply batch is
	// encoded, checksummed, and fsynced into the log before its epoch
	// publishes, and an initial snapshot is written at construction, so
	// a crash at any moment recovers through OpenWorkspace.
	WALDir string
	// FS overrides the filesystem the durability layer writes through;
	// nil means the real OS filesystem. The crash-injection harness
	// substitutes its fault-injecting in-memory implementation.
	FS vfs.FS
	// StoreFactory builds the physical page stores behind every index
	// the solvers create (the object R-tree plus any function-side
	// structure). Nil means in-memory simulated disks
	// (pagestore.NewMemStore); tests substitute temp-file-backed
	// FileStores to exercise the on-disk format end to end. The factory
	// is called once per store; implementations returning file-backed
	// stores must hand out distinct files per call.
	StoreFactory func(pageSize int) (pagestore.Store, error)
}

func (c Config) pageSize() int {
	if c.PageSize <= 0 {
		return 4096
	}
	return c.PageSize
}

func (c Config) bufferFrac() float64 {
	if c.BufferFrac == 0 {
		return 0.02
	}
	if c.BufferFrac < 0 {
		return 0
	}
	return c.BufferFrac
}

func (c Config) omegaFrac() float64 {
	if c.OmegaFrac <= 0 {
		return 0.025
	}
	return c.OmegaFrac
}

// treeFill is the STR bulk-load occupancy of every index.
const treeFill = 0.9

func (c Config) funcBufferFrac() float64 {
	if c.FuncBufferFrac == 0 {
		return c.bufferFrac()
	}
	if c.FuncBufferFrac < 0 {
		return 0
	}
	return c.FuncBufferFrac
}

// Result is the output of one algorithm run.
type Result struct {
	Pairs []Pair
	Stats metrics.Stats
}

// omegaFor computes Ω for a function-set size.
func (c Config) omegaFor(numFuncs int) int {
	om := int(c.omegaFrac() * float64(numFuncs))
	if om < 1 {
		om = 1
	}
	return om
}

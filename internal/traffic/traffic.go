// Package traffic is a replayable production-workload harness for the
// fairassign Workspace: it materializes a seeded trace of open-loop
// arrivals — mutations, snapshot acquires, and view queries with
// Zipf-skewed popularity and optional bursts — and drives the public
// API with it, reporting latency percentiles per operation class.
//
// The trace is fully deterministic: the generator maintains its own
// model of the live population, so every operation carries concrete
// IDs and the same Spec always yields byte-identical operation
// sequences. Mutations apply in trace order in every driver mode
// (the sequential writer and the group-commit queue both preserve
// FIFO), so the final matching is mode-independent — which is what
// lets a trace double as a conformance check for the batched path.
package traffic

import (
	"fmt"
	"math/rand"
	"time"

	"fairassign"
)

// Spec describes one reproducible workload trace. Everything the trace
// contains is derived from these fields.
type Spec struct {
	Seed      int64 `json:"seed"`
	Dims      int   `json:"dims"`
	Objects   int   `json:"objects"`   // initial object population
	Functions int   `json:"functions"` // initial function population
	Ops       int   `json:"ops"`       // operations in the trace

	// Rate is the mean arrival rate in operations per second of the
	// open-loop schedule (arrivals do not wait for completions).
	Rate float64 `json:"rate"`
	// Burst > 1 modulates arrivals with a two-state on/off process:
	// bursts arrive at Rate·Burst, lulls at Rate/Burst. 0 or 1 keeps a
	// plain Poisson process at Rate.
	Burst float64 `json:"burst,omitempty"`
	// Zipf is the skew s of the popularity distribution over removal
	// targets and query functions ("hot users, hot objects"). Values
	// <= 1 mean uniform popularity.
	Zipf float64 `json:"zipf,omitempty"`

	// WriteFrac is the fraction of operations that are mutations; of
	// the reads, SnapshotFrac are bare snapshot acquires and the rest
	// run a top-K view query. Defaults: 0.2 writes, 0.25 snapshots.
	WriteFrac    float64 `json:"write_frac,omitempty"`
	SnapshotFrac float64 `json:"snapshot_frac,omitempty"`
	// TopK is the k of view queries (default 10).
	TopK int `json:"top_k,omitempty"`
	// MaxCap > 1 draws random capacities in [1, MaxCap] for arriving
	// objects and functions.
	MaxCap int `json:"max_cap,omitempty"`
}

func (s Spec) String() string {
	return fmt.Sprintf("traffic seed=%d dims=%d n=%d f=%d ops=%d rate=%g burst=%g zipf=%g write=%g",
		s.Seed, s.Dims, s.Objects, s.Functions, s.Ops, s.Rate, s.Burst, s.Zipf, s.WriteFrac)
}

// OpClass is the operation class a trace entry belongs to; latency is
// reported per class.
type OpClass uint8

const (
	ClassMutation OpClass = iota
	ClassSnapshot
	ClassQuery
)

// String returns the report key of the class.
func (c OpClass) String() string {
	switch c {
	case ClassMutation:
		return "mutation"
	case ClassSnapshot:
		return "snapshot_acquire"
	default:
		return "view_query"
	}
}

// Op is one scheduled operation: an arrival offset from trace start
// plus the concrete, pre-resolved payload of its class.
type Op struct {
	At    time.Duration
	Class OpClass

	Mut   fairassign.Mutation // ClassMutation
	Query fairassign.Function // ClassQuery
	K     int                 // ClassQuery
}

// Trace is a fully materialized workload: the initial population plus
// the scheduled operation sequence.
type Trace struct {
	Spec      Spec
	Objects   []fairassign.Object
	Functions []fairassign.Function
	Ops       []Op
}

func (s Spec) writeFrac() float64 {
	if s.WriteFrac <= 0 {
		return 0.2
	}
	return s.WriteFrac
}

func (s Spec) snapshotFrac() float64 {
	if s.SnapshotFrac <= 0 {
		return 0.25
	}
	return s.SnapshotFrac
}

func (s Spec) topK() int {
	if s.TopK <= 0 {
		return 10
	}
	return s.TopK
}

// zipfPicker draws popularity ranks with skew s over a fixed domain;
// rank r is mapped onto a live population of size n as r mod n, so the
// low (hot) ranks concentrate on stable early indices.
type zipfPicker struct {
	z   *rand.Zipf
	rng *rand.Rand
}

func newZipfPicker(rng *rand.Rand, s float64) *zipfPicker {
	p := &zipfPicker{rng: rng}
	if s > 1 {
		p.z = rand.NewZipf(rng, s, 1, 1<<20)
	}
	return p
}

func (p *zipfPicker) pick(n int) int {
	if n <= 1 {
		return 0
	}
	if p.z == nil {
		return p.rng.Intn(n)
	}
	return int(p.z.Uint64()) % n
}

// NewTrace materializes the trace for a spec. The generator tracks the
// live population itself (arrivals append, departures remove), so all
// removal targets are valid under in-order application and the trace
// replays identically on every driver mode and run.
func NewTrace(spec Spec) (*Trace, error) {
	if spec.Dims < 1 {
		return nil, fmt.Errorf("traffic: dims must be >= 1, got %d", spec.Dims)
	}
	if spec.Objects < 4 || spec.Functions < 2 {
		return nil, fmt.Errorf("traffic: need at least 4 objects and 2 functions, got %d/%d", spec.Objects, spec.Functions)
	}
	if spec.Ops < 0 {
		return nil, fmt.Errorf("traffic: negative op count %d", spec.Ops)
	}
	if spec.Rate <= 0 {
		return nil, fmt.Errorf("traffic: rate must be positive, got %g", spec.Rate)
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	tr := &Trace{
		Spec:      spec,
		Objects:   fairassign.GenerateObjects(fairassign.Independent, spec.Objects, spec.Dims, spec.Seed+1),
		Functions: fairassign.GenerateFunctions(spec.Functions, spec.Dims, spec.Seed+2),
	}
	if spec.MaxCap > 1 {
		for i := range tr.Objects {
			tr.Objects[i].Capacity = 1 + rng.Intn(spec.MaxCap)
		}
		for i := range tr.Functions {
			tr.Functions[i].Capacity = 1 + rng.Intn(spec.MaxCap)
		}
	}

	// The generator's population model.
	liveO := make([]uint64, len(tr.Objects))
	for i, o := range tr.Objects {
		liveO[i] = o.ID
	}
	liveF := make([]uint64, len(tr.Functions))
	for i, f := range tr.Functions {
		liveF[i] = f.ID
	}
	nextID := uint64(10_000_000)

	// A small pool of query identities so popularity skew is visible:
	// a few hot query users, a long tail of cold ones.
	qpool := fairassign.GenerateFunctions(32, spec.Dims, spec.Seed+3)
	zipf := newZipfPicker(rng, spec.Zipf)

	// Two-state modulated Poisson arrivals.
	burst := spec.Burst
	if burst < 1 {
		burst = 1
	}
	high := true
	var at time.Duration
	tr.Ops = make([]Op, 0, spec.Ops)
	for i := 0; i < spec.Ops; i++ {
		lambda := spec.Rate
		if burst > 1 {
			if rng.Float64() < 0.05 {
				high = !high
			}
			if high {
				lambda = spec.Rate * burst
			} else {
				lambda = spec.Rate / burst
			}
		}
		at += time.Duration(rng.ExpFloat64() / lambda * float64(time.Second))
		op := Op{At: at}

		switch u := rng.Float64(); {
		case u < spec.writeFrac():
			op.Class = ClassMutation
			op.Mut = nextMutation(spec, rng, zipf, &liveO, &liveF, &nextID)
		case u < spec.writeFrac()+(1-spec.writeFrac())*spec.snapshotFrac():
			op.Class = ClassSnapshot
		default:
			op.Class = ClassQuery
			op.Query = qpool[zipf.pick(len(qpool))]
			op.K = spec.topK()
		}
		tr.Ops = append(tr.Ops, op)
	}
	return tr, nil
}

// nextMutation draws one mutation against the generator's population
// model and updates the model. Arrivals and departures are balanced so
// the population hovers around its initial size; departures target
// Zipf-popular entities.
func nextMutation(spec Spec, rng *rand.Rand, zipf *zipfPicker, liveO, liveF *[]uint64, nextID *uint64) fairassign.Mutation {
	kind := rng.Float64()
	// Population floors flip departures into arrivals.
	if kind < 0.60 && kind >= 0.35 && len(*liveO) <= 4 {
		kind = 0.0 // add object instead
	}
	if kind >= 0.80 && len(*liveF) <= 2 {
		kind = 0.65 // add function instead
	}
	switch {
	case kind < 0.35: // object arrival
		*nextID++
		attrs := make([]float64, spec.Dims)
		for d := range attrs {
			attrs[d] = rng.Float64()
		}
		o := fairassign.Object{ID: *nextID, Attributes: attrs}
		if spec.MaxCap > 1 {
			o.Capacity = 1 + rng.Intn(spec.MaxCap)
		}
		*liveO = append(*liveO, o.ID)
		return fairassign.AddObjectOp(o)
	case kind < 0.60: // object departure (popularity-skewed)
		i := zipf.pick(len(*liveO))
		id := (*liveO)[i]
		*liveO = append((*liveO)[:i], (*liveO)[i+1:]...)
		return fairassign.RemoveObjectOp(id)
	case kind < 0.80: // function arrival
		*nextID++
		w := make([]float64, spec.Dims)
		sum := 0.0
		for d := range w {
			w[d] = 0.05 + rng.Float64()
			sum += w[d]
		}
		for d := range w {
			w[d] /= sum
		}
		f := fairassign.Function{ID: *nextID, Weights: w}
		if spec.MaxCap > 1 {
			f.Capacity = 1 + rng.Intn(spec.MaxCap)
		}
		*liveF = append(*liveF, f.ID)
		return fairassign.AddFunctionOp(f)
	default: // function departure (popularity-skewed)
		i := zipf.pick(len(*liveF))
		id := (*liveF)[i]
		*liveF = append((*liveF)[:i], (*liveF)[i+1:]...)
		return fairassign.RemoveFunctionOp(id)
	}
}

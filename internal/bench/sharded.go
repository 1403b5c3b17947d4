package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/geom"
)

// ShardedScaleCase is one row of the sharded-tier scaling matrix: the
// serving loop (mutate → global snapshot → global top-k) at one shard
// count, on the production-scale instance. MutationsPerSec is the
// sustained throughput of that loop — the metric the tier exists for,
// because each mutation's true serving cost includes the snapshot
// recapture it forces, and sharding shrinks the recapture to the dirty
// shard. SpeedupX is against the 1-shard row; Identical asserts the
// final matching and the last top-k answer are byte-identical to the
// 1-shard run's.
type ShardedScaleCase struct {
	Name   string `json:"name"`
	N      int    `json:"n"`
	Dims   int    `json:"dims"`
	Shards int    `json:"shards"`

	Steps           int     `json:"steps"`
	MutationsPerSec float64 `json:"mutations_per_sec"`
	// ApplyNsPerOp isolates the Apply call (repair + commit) from the
	// serving loop; the gap to 1/MutationsPerSec is snapshot + query.
	ApplyNsPerOp int64 `json:"apply_ns_per_op"`
	TopKP50NS    int64 `json:"topk_p50_ns"`
	TopKP99NS    int64 `json:"topk_p99_ns"`
	SnapNsPerOp  int64 `json:"snapshot_ns_per_op"`

	SpeedupX  float64 `json:"speedup_x,omitempty"`
	Identical bool    `json:"identical"`
	Detail    string  `json:"detail,omitempty"`
}

// shardedScaleCounts is the shard-count sweep of the scaling matrix.
var shardedScaleCounts = []int{1, 2, 4, 8}

// shardedScaleSteps bounds the serving loop: enough iterations for
// stable percentiles, few enough that the 1-shard row (which recaptures
// the full n-object snapshot every step) stays affordable at n = 10⁶.
func shardedScaleSteps(n int) int {
	if n >= 200_000 {
		return 48
	}
	return 160
}

// shardedMutationScript builds one deterministic mutation stream —
// alternating arrivals of fresh objects and departures of live ones, so
// the population hovers at n — applied identically at every shard
// count.
func shardedMutationScript(objs []assign.Object, dims, steps int, seed int64) []assign.Mutation {
	rng := rand.New(rand.NewSource(seed))
	live := make([]uint64, len(objs))
	for i, o := range objs {
		live[i] = o.ID
	}
	nextID := uint64(1 << 40)
	muts := make([]assign.Mutation, 0, steps)
	for i := 0; i < steps; i++ {
		if i%2 == 0 {
			nextID++
			pt := make(geom.Point, dims)
			for d := range pt {
				pt[d] = rng.Float64()
			}
			live = append(live, nextID)
			muts = append(muts, assign.Mutation{Kind: assign.MutAddObject, Object: assign.Object{ID: nextID, Point: pt}})
		} else {
			at := rng.Intn(len(live))
			muts = append(muts, assign.Mutation{Kind: assign.MutRemoveObject, ID: live[at]})
			live = append(live[:at], live[at+1:]...)
		}
	}
	return muts
}

// runShardedScale measures the sharded serving loop at 1/2/4/8 shards
// on the production-scale instance: every step applies one mutation,
// acquires a global cross-shard snapshot, and answers one global top-10
// through the score-ceiling merge. All counts replay the identical
// mutation script, and every count's final matching must be
// byte-identical to the 1-shard run's.
func runShardedScale(opts Options) ([]ShardedScaleCase, error) {
	n, dims := opts.ProdSize, 2
	objs := datagen.Objects(datagen.AntiCorrelated, n, dims, opts.Seed)
	funcs := datagen.Functions(prodFuncsFor(n), dims, opts.Seed+3)
	p := &assign.Problem{Dims: dims, Objects: objs, Functions: funcs}
	steps := shardedScaleSteps(n)
	muts := shardedMutationScript(objs, dims, steps, opts.Seed+11)
	queryScorers := make([]assign.Function, 8)
	copy(queryScorers, funcs)

	var out []ShardedScaleCase
	var basePairs []assign.Pair
	var baseTopIDs []uint64
	var baseTopScores []uint64
	var baseRate float64
	for _, shards := range shardedScaleCounts {
		e, err := assign.NewWorkspace(p, assign.Config{Shards: shards})
		if err != nil {
			return nil, fmt.Errorf("sharded_scale: %d shards: %w", shards, err)
		}

		var (
			applyNS int64
			snapNS  int64
			topkNS  = make([]time.Duration, 0, steps)
			lastIDs []uint64
			lastSc  []uint64
		)
		loopStart := time.Now()
		for i, m := range muts {
			t0 := time.Now()
			if err := e.Apply([]assign.Mutation{m}); err != nil {
				e.Close()
				return nil, fmt.Errorf("sharded_scale: %d shards, step %d: %w", shards, i, err)
			}
			t1 := time.Now()
			applyNS += t1.Sub(t0).Nanoseconds()
			v, err := e.Snapshot()
			if err != nil {
				e.Close()
				return nil, err
			}
			snapNS += time.Since(t1).Nanoseconds()
			q := queryScorers[i%len(queryScorers)].Scorer()
			t2 := time.Now()
			items, scores, err := v.TopKScorer(q, 10)
			if err != nil {
				v.Close()
				e.Close()
				return nil, err
			}
			topkNS = append(topkNS, time.Since(t2))
			lastIDs = lastIDs[:0]
			lastSc = lastSc[:0]
			for j := range items {
				lastIDs = append(lastIDs, items[j].ID)
				lastSc = append(lastSc, math.Float64bits(scores[j]))
			}
			v.Close()
		}
		wall := time.Since(loopStart)

		finalPairs := e.Pairs()
		e.Close()

		identical := true
		if shards == shardedScaleCounts[0] {
			basePairs = finalPairs
			baseTopIDs = append([]uint64(nil), lastIDs...)
			baseTopScores = append([]uint64(nil), lastSc...)
		} else {
			identical = len(finalPairs) == len(basePairs) &&
				len(lastIDs) == len(baseTopIDs)
			for i := 0; identical && i < len(finalPairs); i++ {
				identical = finalPairs[i] == basePairs[i]
			}
			for i := 0; identical && i < len(lastIDs); i++ {
				identical = lastIDs[i] == baseTopIDs[i] && lastSc[i] == baseTopScores[i]
			}
		}

		sort.Slice(topkNS, func(i, j int) bool { return topkNS[i] < topkNS[j] })
		rank := func(p float64) int64 {
			i := int(p*float64(len(topkNS))+0.9999999) - 1
			if i < 0 {
				i = 0
			}
			if i >= len(topkNS) {
				i = len(topkNS) - 1
			}
			return topkNS[i].Nanoseconds()
		}
		rate := float64(steps) / wall.Seconds()
		c := ShardedScaleCase{
			Name:            fmt.Sprintf("sharded_scale/%dshard", shards),
			N:               n,
			Dims:            dims,
			Shards:          shards,
			Steps:           steps,
			MutationsPerSec: rate,
			ApplyNsPerOp:    applyNS / int64(steps),
			SnapNsPerOp:     snapNS / int64(steps),
			TopKP50NS:       rank(0.50),
			TopKP99NS:       rank(0.99),
			Identical:       identical,
			Detail:          "serving loop: mutate, snapshot, global top-10 via ceiling merge",
		}
		if shards == shardedScaleCounts[0] {
			baseRate = rate
		} else if baseRate > 0 {
			c.SpeedupX = rate / baseRate
		}
		out = append(out, c)
	}
	return out, nil
}

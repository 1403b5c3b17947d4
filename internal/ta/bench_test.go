package ta

import (
	"math/rand"
	"testing"

	"fairassign/internal/geom"
)

// BenchmarkSearchResume replays SB's Lines 9–11 at the shape of the
// one-shot solve workload: 4-D linear functions, |F| = 100, Ω = 2. A
// window of 150 resumable searches (about the skyline of 10k independent
// 4-D objects) asks for its best functions each round; every function
// chosen goes to its highest-scoring chooser, that function is removed
// from the lists, and the chooser's search is released and replaced by
// the next of 300 objects. One iteration drains every function. The
// ns/sorted metric divides the timed run by the sorted accesses it made.
func BenchmarkSearchResume(b *testing.B) {
	const dims, nf, nobj, window, omega = 4, 100, 300, 150, 2
	rng := rand.New(rand.NewSource(42))
	funcs := randFuncs(rng, nf, dims)
	objs := make([]geom.Point, nobj)
	for i := range objs {
		objs[i] = randPoint(rng, dims)
	}
	type winner struct {
		slot  int
		score float64
	}
	var sorted int64
	active := make([]*Search, window)
	chose := make([]uint64, window) // each slot's best function this round
	won := make(map[uint64]winner, nf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, err := NewLists(funcs, dims)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for s := range active {
			active[s] = NewSearch(l, objs[s], omega)
		}
		fresh := window
		for l.Live() > 0 {
			clear(won)
			for s, srch := range active {
				if srch == nil {
					continue
				}
				id, sc, ok := srch.Best()
				if !ok {
					b.Fatal("live functions left but Best found none")
				}
				chose[s] = id
				if w, seen := won[id]; !seen || sc > w.score {
					won[id] = winner{slot: s, score: sc}
				}
			}
			// Pair in slot order, so the objects that refill the window
			// land in the same slots on every iteration.
			for s, srch := range active {
				if srch == nil || won[chose[s]].slot != s {
					continue
				}
				if err := l.Remove(chose[s]); err != nil {
					b.Fatal(err)
				}
				srch.Release()
				active[s] = nil
				if fresh < nobj {
					active[s] = NewSearch(l, objs[fresh], omega)
					fresh++
				}
			}
		}
		for s, srch := range active {
			if srch != nil {
				srch.Release()
				active[s] = nil
			}
		}
		sorted += l.Counters.SortedAccesses
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sorted), "ns/sorted")
}

// Package simd holds the explicit-SIMD float64 kernels behind the
// columnar hot paths: per-dimension weighted accumulation
// (score.EvalBlock / EvalPrepared / FuncBlocks.Best), the blocked
// dominance filter (skyline.ColSet), and the (score, lowest-ID) argmax
// reduction under ColSet.Best / Maintainer.Best.
//
// Each kernel exists twice — hand-written AVX2 assembly (amd64) and a
// portable pure-Go implementation — behind one exported entry point that
// dispatches on one-time runtime CPU-feature detection (hand-rolled
// CPUID; no dependencies). Every other architecture builds the portable
// kernels only. The contract, which the
// entire conformance and benchmark gate stack depends on, is that every
// implementation is bit-for-bit identical on every input, NaN, ±Inf,
// denormals and signed zeros included. Two design rules enforce it:
//
//   - No FMA, anywhere. A fused multiply-add rounds once where the
//     portable kernel rounds twice, so the assembly uses separate
//     multiply and add instructions, and the portable kernels (and the
//     scalar reference loops they are differentially tested against —
//     geom.Dot, score.Eval) are written with explicit intermediate
//     assignments, which the Go spec forbids the compiler to fuse.
//     Results are therefore also identical across GOARCH and GOAMD64
//     levels.
//
//   - Identical evaluation order. Accumulation kernels (Axpy and
//     friends) vectorize across output elements, never across the
//     summation axis, so each out[i] is built by exactly the additions
//     the scalar code performs, in the same order. The argmax kernel
//     uses a fixed 4-lane strided scan order (see SelectBest) that the
//     portable implementation follows lane for lane.
//
// Dispatch can be disabled two ways: building with the `purego` tag (no
// assembly is compiled at all), or calling SetEnabled(false) at runtime.
// Both leave results bit-identical — only wall-clock changes.
package simd

import "sync/atomic"

// enabled gates dispatch to the assembly kernels at runtime. Atomic so
// tests and the benchmark duels may flip it while concurrent readers are
// inside the kernels (-race clean); the Load is a plain MOV.
var enabled atomic.Bool

func init() { enabled.Store(hasAsm) }

// SetEnabled turns dispatch to the assembly kernels on or off at
// runtime. Enabling is a no-op when the binary has no assembly for this
// CPU (purego builds, unsupported architectures, missing CPU features).
// Results are bit-identical either way; this is the in-process
// differential-testing hook, not a semantics knob.
func SetEnabled(on bool) { enabled.Store(on && hasAsm) }

// Enabled reports whether the assembly kernels are currently dispatched.
func Enabled() bool { return enabled.Load() }

// Available reports whether assembly kernels exist for this binary and
// CPU, regardless of the runtime switch.
func Available() bool { return hasAsm }

// Level names the active kernel set: "avx2" when assembly is
// dispatched, "portable" otherwise.
func Level() string {
	if enabled.Load() {
		return asmLevel
	}
	return "portable"
}

// DetectedLevel names the kernel set the CPU supports ("avx2" or
// "portable"), ignoring the runtime switch — what Level would report
// with dispatch enabled.
func DetectedLevel() string {
	if hasAsm {
		return asmLevel
	}
	return "portable"
}

// minAsmLen is the slice length below which the exported entry points
// skip the assembly path: under ~2 vector blocks the call overhead and
// tail handling cost more than the scalar loop.
const minAsmLen = 8

// SelLanes is the running state of the 4-lane strided argmax scan: lane
// j holds the best (score, id, index) triple seen among indexes ≡ j
// (mod 4), under the replacement predicate
//
//	replace iff !(s < bestS) && !(s == bestS && id >= bestID)
//
// — the same predicate the row-wise scans use, which prefers the higher
// score, breaks score ties to the lower ID, and (matching the scalar
// loops' NaN behavior) lets an unordered comparison replace the
// incumbent.
type SelLanes struct {
	S   [4]float64
	ID  [4]uint64
	Idx [4]int64
}

// SelectBest returns the index of the element maximizing (score, -id)
// under the predicate above, or -1 when the slices are empty. ids must
// be at least as long as scores.
//
// Scan order is part of the kernel's spec, because with NaN scores the
// predicate is not order-independent: when len(scores) >= 4 the scan is
// 4-lane strided — lanes seeded from elements 0..3, every further full
// block of 4 folded lane-wise, then lanes 0..3 merged in order, then
// the tail elements in index order. Shorter inputs scan sequentially.
// On NaN-free scores with unique ids this picks exactly the winner of
// the total order (score, -id), like any scan order; assembly and
// portable paths agree bit for bit always.
func SelectBest(scores []float64, ids []uint64) int {
	n := len(scores)
	if n == 0 {
		return -1
	}
	if n < 4 {
		bi := 0
		for i := 1; i < n; i++ {
			if selReplace(scores[i], ids[i], scores[bi], ids[bi]) {
				bi = i
			}
		}
		return bi
	}
	var L SelLanes
	selectBestBlocks(&L, scores, ids)
	bestS, bestID, bestIdx := L.S[0], L.ID[0], L.Idx[0]
	for j := 1; j < 4; j++ {
		if selReplace(L.S[j], L.ID[j], bestS, bestID) {
			bestS, bestID, bestIdx = L.S[j], L.ID[j], L.Idx[j]
		}
	}
	for i := n &^ 3; i < n; i++ {
		if selReplace(scores[i], ids[i], bestS, bestID) {
			bestS, bestID, bestIdx = scores[i], ids[i], int64(i)
		}
	}
	return int(bestIdx)
}

// selReplace is the argmax replacement predicate (see SelLanes).
func selReplace(s float64, id uint64, bestS float64, bestID uint64) bool {
	if s < bestS {
		return false
	}
	if s == bestS && id >= bestID {
		return false
	}
	return true
}

// selectBestBlocksGeneric is the portable lane scan: it must mirror the
// assembly versions decision for decision (pure comparisons and
// selects, no arithmetic, so bit-identity is structural).
func selectBestBlocksGeneric(L *SelLanes, scores []float64, ids []uint64) {
	for j := 0; j < 4; j++ {
		L.S[j], L.ID[j], L.Idx[j] = scores[j], ids[j], int64(j)
	}
	n4 := len(scores) &^ 3
	for i := 4; i < n4; i += 4 {
		for j := 0; j < 4; j++ {
			if s, id := scores[i+j], ids[i+j]; selReplace(s, id, L.S[j], L.ID[j]) {
				L.S[j], L.ID[j], L.Idx[j] = s, id, int64(i+j)
			}
		}
	}
}

// --- portable kernel bodies -------------------------------------------
//
// Every multiply-add below goes through an explicitly assigned
// intermediate (p := a*v; out += p): per the Go spec an implementation
// may fuse a floating-point multiply and add only within a single
// expression, so the temporary guarantees mul-then-round-then-add on
// every architecture — the exact sequence the assembly performs.

func axpyGeneric(out, col []float64, a float64) {
	for i, v := range col {
		p := a * v
		out[i] += p
	}
}

func axpyZGeneric(out, col []float64, a float64) {
	for i, v := range col {
		p := a * v
		out[i] = 0 + p
	}
}

func scaleMaxGeneric(out, col []float64, a float64) {
	for i, v := range col {
		if p := a * v; p > out[i] {
			out[i] = p
		}
	}
}

func scaleMaxZGeneric(out, col []float64, a float64) {
	for i, v := range col {
		p := a * v
		if p > 0 {
			out[i] = p
		} else {
			out[i] = 0
		}
	}
}

func axpySqClampGeneric(out, col []float64, a float64) {
	for i, v := range col {
		sq := 0.0
		if !(v <= 0) {
			sq = v * v
		}
		p := a * sq
		out[i] += p
	}
}

func axpySqClampZGeneric(out, col []float64, a float64) {
	for i, v := range col {
		sq := 0.0
		if !(v <= 0) {
			sq = v * v
		}
		p := a * sq
		out[i] = 0 + p
	}
}

func compressNotLessGeneric(dst []int32, col []float64, q float64, base int32) int {
	k := 0
	for i, v := range col {
		if !(v < q) {
			dst[k] = base + int32(i)
			k++
		}
	}
	return k
}

// FilterIdxNotLess compacts cand in place, keeping the indexes ci with
// !(col[ci] < q) (NaN survives, mirroring CompressNotLess), and returns
// the surviving count. It stays scalar on every architecture: the
// survivor passes of the dominance filter touch the few candidates the
// first column admitted, and the output is pure integer selection, so
// the SIMD-on and SIMD-off paths are trivially identical.
func FilterIdxNotLess(cand []int32, col []float64, q float64) int {
	k := 0
	for _, ci := range cand {
		if !(col[ci] < q) {
			cand[k] = ci
			k++
		}
	}
	return k
}

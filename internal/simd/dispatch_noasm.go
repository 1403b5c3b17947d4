//go:build purego || !amd64

package simd

// This file is the portable build: the `purego` tag (or an architecture
// without hand-written kernels) compiles no assembly at all, and every
// exported entry point is the pure-Go kernel directly.

const (
	hasAsm   = false
	asmLevel = ""
)

// Axpy accumulates out[i] += a*col[i] over len(col) elements
// (len(out) >= len(col)), with the multiply rounded before the add.
func Axpy(out, col []float64, a float64) { axpyGeneric(out, col, a) }

// AxpyZ writes out[i] = 0 + a*col[i]: the first accumulation of a fresh
// sum, with the explicit +0.0 matching `s := 0.0; s += p` bit for bit
// (it normalizes -0.0 products to +0.0 exactly as the scalar code does).
func AxpyZ(out, col []float64, a float64) { axpyZGeneric(out, col, a) }

// ScaleMax folds out[i] = (a*col[i] > out[i]) ? a*col[i] : out[i] — the
// Chebyshev accumulation step. The predicate keeps out[i] when the
// product is NaN.
func ScaleMax(out, col []float64, a float64) { scaleMaxGeneric(out, col, a) }

// ScaleMaxZ is ScaleMax against an implicit zero accumulator:
// out[i] = (a*col[i] > 0) ? a*col[i] : +0.
func ScaleMaxZ(out, col []float64, a float64) { scaleMaxZGeneric(out, col, a) }

// AxpySqClamp accumulates out[i] += a*sq(col[i]) where sq(v) is v*v for
// !(v <= 0) and +0 otherwise — the Lp p=2 power column with the
// non-negative clamp of powNonNeg (NaN squares to NaN, negatives and
// zeros clamp to +0).
func AxpySqClamp(out, col []float64, a float64) { axpySqClampGeneric(out, col, a) }

// AxpySqClampZ is AxpySqClamp writing a fresh sum (0 + product).
func AxpySqClampZ(out, col []float64, a float64) { axpySqClampZGeneric(out, col, a) }

// CompressNotLess writes base+i to dst for every i with !(col[i] < q)
// (NaN survives), in ascending i order, and returns the survivor count.
// len(dst) must be at least len(col): the vector paths store whole
// blocks and rely on the slack.
func CompressNotLess(dst []int32, col []float64, q float64, base int32) int {
	return compressNotLessGeneric(dst, col, q, base)
}

func selectBestBlocks(L *SelLanes, scores []float64, ids []uint64) {
	selectBestBlocksGeneric(L, scores, ids)
}

// Package geom provides the low-level geometric primitives shared by all
// other packages: D-dimensional points, axis-aligned rectangles (MBRs),
// dominance tests, and linear-function scoring.
//
// Coordinates follow the paper's convention: every attribute is
// "larger is better", so the most preferable (imaginary) object is the
// corner of the space with the maximum value in every dimension
// (the "sky point" / "best point").
package geom

import (
	"fmt"
	"strings"
)

// Point is a D-dimensional feature vector. Points are compared under the
// "larger is better" convention in every dimension.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Dominates reports whether p dominates q: p is at least as good as q in
// every dimension and the two points do not coincide (Section 2.2 of the
// paper).
func (p Point) Dominates(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	strictly := false
	for i := range p {
		switch {
		case p[i] < q[i]:
			return false
		case p[i] > q[i]:
			strictly = true
		}
	}
	return strictly
}

// DominatesOrEqual reports whether p is at least as good as q in every
// dimension (q may coincide with p).
func (p Point) DominatesOrEqual(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] < q[i] {
			return false
		}
	}
	return true
}

// Dot returns the inner product of weights w and point p. It is the score
// of p under the linear preference function with coefficients w
// (Equation 1 of the paper).
func Dot(w, p []float64) float64 {
	s := 0.0
	for i := range w {
		// Explicit intermediate so the compiler cannot fuse the
		// multiply into the add (the Go spec only permits fusion within
		// one expression): Dot must stay bit-identical to the columnar
		// SIMD kernels, which round the product before accumulating, on
		// every GOARCH and GOAMD64 level.
		v := w[i] * p[i]
		s += v
	}
	return s
}

// String renders the point with compact precision, for logs and tests.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Rect is an axis-aligned minimum bounding rectangle.
// Min[i] <= Max[i] must hold for every dimension i.
type Rect struct {
	Min Point
	Max Point
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// Dims returns the dimensionality of the rectangle.
func (r Rect) Dims() int { return len(r.Min) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Min {
		if r.Min[i] > s.Max[i] || r.Max[i] < s.Min[i] {
			return false
		}
	}
	return true
}

// Enlarge grows r in place so that it covers s.
func (r *Rect) Enlarge(s Rect) {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] {
			r.Min[i] = s.Min[i]
		}
		if s.Max[i] > r.Max[i] {
			r.Max[i] = s.Max[i]
		}
	}
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	u := r.Clone()
	u.Enlarge(s)
	return u
}

// Area returns the D-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// EnlargementArea returns the increase in area of r needed to cover s.
// It takes the union's extent per dimension with Enlarge's comparisons
// and multiplies in Area's order, so it equals
// r.Union(s).Area() - r.Area() bit for bit without building the union.
func (r Rect) EnlargementArea(s Rect) float64 {
	a, u := 1.0, 1.0
	for i := range r.Min {
		lo, hi := r.Min[i], r.Max[i]
		a *= hi - lo
		if s.Min[i] < lo {
			lo = s.Min[i]
		}
		if s.Max[i] > hi {
			hi = s.Max[i]
		}
		u *= hi - lo
	}
	return u - a
}

// IntersectsDominanceRegion reports whether r intersects the region
// dominated by p (the box [0, p] in "larger is better" space), i.e.
// whether r could contain points dominated by p. Used by the
// DeltaSky-style EDR intersection test without materializing the EDR.
func (r Rect) IntersectsDominanceRegion(p Point) bool {
	for i := range p {
		if r.Min[i] > p[i] {
			return false
		}
	}
	return true
}

// String renders the rectangle for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Min, r.Max)
}

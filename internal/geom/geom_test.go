package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func pt(vs ...float64) Point { return Point(vs) }

func TestDominates(t *testing.T) {
	cases := []struct {
		name string
		p, q Point
		want bool
	}{
		{"strict all dims", pt(2, 2), pt(1, 1), true},
		{"equal one dim", pt(2, 1), pt(1, 1), true},
		{"identical", pt(1, 1), pt(1, 1), false},
		{"incomparable", pt(2, 0), pt(1, 1), false},
		{"dominated", pt(1, 1), pt(2, 2), false},
		{"mismatched dims", pt(1, 1), pt(1, 1, 1), false},
		{"3d strict", pt(3, 3, 3), pt(1, 2, 0), true},
		{"3d tie on one", pt(3, 2, 1), pt(3, 1, 1), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.p.Dominates(c.q); got != c.want {
				t.Errorf("%v Dominates %v = %v, want %v", c.p, c.q, got, c.want)
			}
		})
	}
}

func TestDominatesIsStrictPartialOrder(t *testing.T) {
	// Irreflexive and asymmetric on random points; transitive on triples.
	rng := rand.New(rand.NewSource(1))
	rp := func() Point {
		p := make(Point, 3)
		for i := range p {
			p[i] = float64(rng.Intn(4)) // small domain to force ties
		}
		return p
	}
	for i := 0; i < 2000; i++ {
		a, b, c := rp(), rp(), rp()
		if a.Dominates(a) {
			t.Fatalf("irreflexivity violated: %v", a)
		}
		if a.Dominates(b) && b.Dominates(a) {
			t.Fatalf("asymmetry violated: %v %v", a, b)
		}
		if a.Dominates(b) && b.Dominates(c) && !a.Dominates(c) {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

func TestDominatesOrEqual(t *testing.T) {
	if !pt(1, 1).DominatesOrEqual(pt(1, 1)) {
		t.Error("point should dominate-or-equal itself")
	}
	if pt(1, 0).DominatesOrEqual(pt(1, 1)) {
		t.Error("worse point should not dominate-or-equal")
	}
}

func TestDot(t *testing.T) {
	got := Dot([]float64{0.8, 0.2}, []float64{0.8, 0.2})
	want := 0.68
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Dot = %v, want %v", got, want)
	}
}

func TestPaperFigure1Scores(t *testing.T) {
	// Figure 1: f1 = 0.8X+0.2Y, objects a..d; f1(c)=0.68 is the global max.
	objs := map[string]Point{
		"a": pt(0.5, 0.6), "b": pt(0.2, 0.7), "c": pt(0.8, 0.2), "d": pt(0.4, 0.4),
	}
	f1 := []float64{0.8, 0.2}
	best, bestScore := "", -1.0
	for name, o := range objs {
		if s := Dot(f1, o); s > bestScore {
			best, bestScore = name, s
		}
	}
	if best != "c" {
		t.Errorf("f1's top-1 = %s (%.2f), want c", best, bestScore)
	}
	if diff := bestScore - 0.68; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("f1(c) = %v, want 0.68", bestScore)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Min: pt(0, 0), Max: pt(2, 4)}
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %v, want 8", got)
	}
	if !r.Contains(pt(1, 1)) || !r.Contains(pt(0, 0)) || !r.Contains(pt(2, 4)) {
		t.Error("Contains should include interior and boundary")
	}
	if r.Contains(pt(3, 1)) {
		t.Error("Contains should exclude outside points")
	}
}

func TestRectUnionEnlargement(t *testing.T) {
	a := Rect{Min: pt(0, 0), Max: pt(1, 1)}
	b := Rect{Min: pt(2, 2), Max: pt(3, 3)}
	u := a.Union(b)
	if !u.ContainsRect(a) || !u.ContainsRect(b) {
		t.Error("union must contain both inputs")
	}
	if got := u.Area(); got != 9 {
		t.Errorf("union area = %v, want 9", got)
	}
	if got := a.EnlargementArea(b); got != 8 {
		t.Errorf("enlargement = %v, want 8", got)
	}
	if got := a.EnlargementArea(Rect{Min: pt(0.2, 0.2), Max: pt(0.5, 0.5)}); got != 0 {
		t.Errorf("enlargement for contained rect = %v, want 0", got)
	}
}

// TestEnlargementAreaMatchesUnion checks EnlargementArea bit for bit
// against the union it no longer builds, on random rectangles in 1–6
// dimensions whose coordinates come from a small pool (so extents
// coincide, nest and degenerate to points) that includes zero, a
// subnormal, huge values and an infinity.
func TestEnlargementAreaMatchesUnion(t *testing.T) {
	pool := []float64{0, 5e-324, 1e-300, 0.25, 0.5, 1 / 3.0, 0.75, 1, 7, 1e300, math.Inf(1)}
	rng := rand.New(rand.NewSource(1))
	coord := func() float64 {
		if rng.Intn(2) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return rng.Float64()
	}
	rect := func(dims int) Rect {
		r := Rect{Min: make(Point, dims), Max: make(Point, dims)}
		for d := range r.Min {
			lo, hi := coord(), coord()
			if lo > hi {
				lo, hi = hi, lo
			}
			r.Min[d], r.Max[d] = lo, hi
		}
		return r
	}
	for i := 0; i < 20000; i++ {
		dims := 1 + rng.Intn(6)
		r, s := rect(dims), rect(dims)
		got, want := r.EnlargementArea(s), r.Union(s).Area()-r.Area()
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%v.EnlargementArea(%v) = %v, union gives %v", r, s, got, want)
		}
	}
}

func TestEnlargementAreaAllocs(t *testing.T) {
	r := Rect{Min: pt(0, 0.1, 0.2, 0.3), Max: pt(0.5, 0.6, 0.7, 0.8)}
	s := Rect{Min: pt(0.4, 0, 0.3, 0.9), Max: pt(0.9, 0.2, 0.4, 0.95)}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += r.EnlargementArea(s) }); n != 0 {
		t.Fatalf("EnlargementArea allocates %v times per call", n)
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Min: pt(0, 0), Max: pt(2, 2)}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{Min: pt(1, 1), Max: pt(3, 3)}, true},
		{Rect{Min: pt(2, 2), Max: pt(3, 3)}, true}, // touching corner
		{Rect{Min: pt(3, 0), Max: pt(4, 2)}, false},
		{Rect{Min: pt(0, 3), Max: pt(2, 4)}, false},
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestIntersectsDominanceRegion(t *testing.T) {
	p := pt(0.5, 0.5)
	if !(Rect{Min: pt(0.4, 0.4), Max: pt(0.9, 0.9)}).IntersectsDominanceRegion(p) {
		t.Error("rect overlapping dominance box should intersect")
	}
	if (Rect{Min: pt(0.6, 0.0), Max: pt(0.9, 0.9)}).IntersectsDominanceRegion(p) {
		t.Error("rect entirely right of dominance box should not intersect")
	}
}

func TestUnionPropertyQuick(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		norm := func(v float64) float64 {
			if v < 0 {
				v = -v
			}
			for v > 1 {
				v /= 10
			}
			return v
		}
		mk := func(x1, y1, x2, y2 float64) Rect {
			x1, y1, x2, y2 = norm(x1), norm(y1), norm(x2), norm(y2)
			if x1 > x2 {
				x1, x2 = x2, x1
			}
			if y1 > y2 {
				y1, y2 = y2, y1
			}
			return Rect{Min: pt(x1, y1), Max: pt(x2, y2)}
		}
		a, b := mk(ax, ay, bx, by), mk(cx, cy, dx, dy)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b) && u.Area() >= a.Area() && u.Area() >= b.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := pt(1, 2, 3)
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone must not alias")
	}
	r := Rect{Min: pt(0, 0), Max: pt(1, 1)}
	s := r.Clone()
	s.Min[0] = -5
	if r.Min[0] != 0 {
		t.Error("Rect.Clone must not alias")
	}
}

package experiments

import (
	"strings"
	"testing"
)

// tiny returns parameters small enough for CI while keeping every
// qualitative trend measurable.
func tiny() Params { return Params{Scale: 0.01, Seed: 42} }

func rowsOf(t *testing.T, rs []*Result) {
	t.Helper()
	for _, r := range rs {
		if len(r.Rows) == 0 {
			t.Fatalf("%s: no rows", r.Figure)
		}
		for _, row := range r.Rows {
			for _, alg := range r.AlgOrder {
				if _, ok := row.Outcomes[alg]; !ok {
					t.Fatalf("%s row %s: missing outcome for %s", r.Figure, row.X, alg)
				}
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rs, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rowsOf(t, rs)
	for _, row := range rs[0].Rows {
		del := row.Outcomes["SB-DeltaSky"]
		upd := row.Outcomes["SB-UpdateSkyline"]
		sb := row.Outcomes["SB"]
		if del.IO < upd.IO {
			t.Errorf("D=%s: DeltaSky I/O (%d) below UpdateSkyline (%d)", row.X, del.IO, upd.IO)
		}
		if sb.IO != upd.IO {
			t.Errorf("D=%s: SB I/O (%d) must equal SB-UpdateSkyline (%d) — same maintenance module",
				row.X, sb.IO, upd.IO)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	rs, err := Fig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rowsOf(t, rs)
	if len(rs) != 3 {
		t.Fatalf("Fig9 should produce 3 sub-figures (one per distribution), got %d", len(rs))
	}
	for _, r := range rs {
		for _, row := range r.Rows {
			sb := row.Outcomes["SB"]
			bf := row.Outcomes["BruteForce"]
			ch := row.Outcomes["Chain"]
			if sb.IO > bf.IO || sb.IO > ch.IO {
				t.Errorf("%s D=%s: SB I/O (%d) should be the lowest (BF %d, Chain %d)",
					r.Title, row.X, sb.IO, bf.IO, ch.IO)
			}
		}
	}
}

func TestFig13BufferShape(t *testing.T) {
	rs, err := Fig13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rowsOf(t, rs)
	rows := rs[0].Rows
	// SB's I/O is flat: its skyline maintenance never revisits a node, so
	// buffering cannot help it.
	first := rows[0].Outcomes["SB"].IO
	for _, row := range rows[1:] {
		if row.Outcomes["SB"].IO != first {
			t.Errorf("SB I/O should be buffer-independent: %d at %s vs %d at %s",
				row.Outcomes["SB"].IO, row.X, first, rows[0].X)
		}
	}
	// The competitors improve with a larger buffer.
	if rows[len(rows)-1].Outcomes["BruteForce"].IO > rows[0].Outcomes["BruteForce"].IO {
		t.Error("BruteForce I/O should not grow with buffer size")
	}
}

func TestFig14CapacityShape(t *testing.T) {
	rs, err := Fig14(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rowsOf(t, rs)
	fcap := rs[0].Rows
	// Function capacity grows the problem: more pairs at k=16 than k=2.
	if fcap[len(fcap)-1].Outcomes["SB"].Pairs <= fcap[0].Outcomes["SB"].Pairs {
		t.Error("function capacity should increase the number of pairs")
	}
}

func TestFig15PriorityShape(t *testing.T) {
	rs, err := Fig15(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rowsOf(t, rs)
	for _, row := range rs[0].Rows {
		if _, ok := row.Outcomes["SB-TwoSkylines"]; !ok {
			t.Fatal("two-skyline variant missing from Fig15")
		}
	}
}

func TestFig17Shape(t *testing.T) {
	// The batch search amortizes one list pass over the whole skyline, so
	// its advantage needs a non-trivial skyline: use a slightly larger
	// scale than the other smoke tests and assert on the highest
	// dimensionality, where the paper's gap is widest.
	rs, err := Fig17(Params{Scale: 0.03, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rowsOf(t, rs)
	if len(rs) != 2 {
		t.Fatalf("Fig17 should produce 2 sub-figures, got %d", len(rs))
	}
	for _, r := range rs {
		for _, row := range r.Rows {
			if row.X != "6" {
				continue
			}
			alt := row.Outcomes["SB-alt"]
			sb := row.Outcomes["SB"]
			if alt.IO > sb.IO {
				t.Errorf("%s D=%s: SB-alt I/O (%d) should not exceed SB (%d)",
					r.Title, row.X, alt.IO, sb.IO)
			}
		}
	}
}

func TestRemainingFiguresRun(t *testing.T) {
	for _, id := range []string{"fig10", "fig11", "fig12", "fig16"} {
		rs, err := Registry[id](tiny())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		rowsOf(t, rs)
	}
}

func TestFormatRendersAllMetrics(t *testing.T) {
	rs, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	text := rs[0].Format()
	for _, want := range []string{"I/O accesses", "CPU time (s)", "memory (MB)", "Figure 8", "SB-DeltaSky"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted output missing %q", want)
		}
	}
}

func TestFigureIDsComplete(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 10 {
		t.Fatalf("expected 10 figures, got %d: %v", len(ids), ids)
	}
}

// At the paper's full scale the cardinalities are Table 2's; scaled
// down, they floor at 16.
func TestDefaultParams(t *testing.T) {
	p := Params{Scale: 1}
	if p.scaled(100) != 100 {
		t.Errorf("scaled(100) at 1.0 = %d", p.scaled(100))
	}
	small := Params{Scale: 0.001}
	if small.scaled(1000) != 16 {
		t.Errorf("scaled should floor at 16, got %d", small.scaled(1000))
	}
}

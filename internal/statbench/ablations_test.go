package statbench

import (
	"testing"
)

func TestAblationClasses(t *testing.T) {
	fig, err := AblationClasses(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	orig := findSeries(t, fig, "original")
	hier := findSeries(t, fig, "hierarchical")
	if len(orig.Points) != len(hier.Points) {
		t.Fatal("series lengths differ")
	}
	for i := range orig.Points {
		// The hierarchical representation never loses, at any class count.
		if hier.Points[i].Seconds > orig.Points[i].Seconds {
			t.Errorf("classes=%d: hierarchical %.4fs > original %.4fs",
				orig.Points[i].X, hier.Points[i].Seconds, orig.Points[i].Seconds)
		}
	}
	// More classes → more tree → more time, monotonically at the tail.
	n := len(orig.Points)
	if orig.Points[n-1].Seconds <= orig.Points[0].Seconds {
		t.Errorf("original cost did not grow with class count: %.4f → %.4f",
			orig.Points[0].Seconds, orig.Points[n-1].Seconds)
	}
}

func TestAblationDepth(t *testing.T) {
	fig, err := AblationDepth(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	orig := findSeries(t, fig, "original")
	first, last := orig.Points[0], orig.Points[len(orig.Points)-1]
	if last.Seconds <= first.Seconds {
		t.Errorf("deeper stacks did not cost more: %.4f → %.4f", first.Seconds, last.Seconds)
	}
	// Original grows much faster with depth than hierarchical: depth
	// multiplies node count, and each node carries a job-width label.
	hier := findSeries(t, fig, "hierarchical")
	og := last.Seconds / first.Seconds
	hg := hier.Points[len(hier.Points)-1].Seconds / hier.Points[0].Seconds
	if og <= hg {
		t.Errorf("original depth growth %.2fx not worse than hierarchical %.2fx", og, hg)
	}
}

func TestAblationFanout(t *testing.T) {
	fig, err := AblationFanout(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	// Deeper trees reduce merge cost (aggregation amortizes earlier).
	if s.Points[len(s.Points)-1].Seconds >= s.Points[0].Seconds {
		t.Errorf("tree depth did not help: %.4f (flat) vs %.4f (deepest)",
			s.Points[0].Seconds, s.Points[len(s.Points)-1].Seconds)
	}
}

func TestAblationEngines(t *testing.T) {
	fig, err := AblationEngines(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := findSeries(t, fig, "sequential fold (1 worker) measured")
	pipe := findSeries(t, fig, "pipelined measured")
	budget := findSeries(t, fig, "pipelined 256KiB budget")
	modeled := findSeries(t, fig, "modeled (any engine)")
	for _, s := range []Series{seq, pipe, budget, modeled} {
		if len(s.Points) != len(seq.Points) {
			t.Fatalf("series %q has %d points, want %d", s.Name, len(s.Points), len(seq.Points))
		}
		for _, p := range s.Points {
			if p.Seconds < 0 {
				t.Errorf("series %q @ %d: negative time %f", s.Name, p.X, p.Seconds)
			}
		}
	}
	// The bounded-budget series must report its peak in-flight bytes.
	found := false
	for _, n := range fig.Notes {
		if contains(n, "peak in-flight") {
			found = true
		}
	}
	if !found {
		t.Errorf("no peak in-flight note recorded; notes: %v", fig.Notes)
	}
}

func TestFigurePlot(t *testing.T) {
	fig, err := Fig2(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Plot()
	for _, want := range []string{"Fig2", "daemons", "launchmon"} {
		if !contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

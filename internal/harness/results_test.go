package harness

import (
	"strings"
	"testing"
)

func TestResultSeriesOps(t *testing.T) {
	r := &Result{Name: "x", Figure: "Fig T", XLabel: "n", YLabel: "v"}
	r.AddPoint("a", 1, 10)
	r.AddPoint("a", 2, 20)
	r.AddPoint("b", 1, 5)
	if v, ok := r.Get("a", 2); !ok || v != 20 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	if _, ok := r.Get("a", 3); ok {
		t.Fatal("missing x found")
	}
	out := render(r)
	for _, want := range []string{"Fig T", "a", "b", "20", "n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestResultTableFormatting(t *testing.T) {
	r := &Result{Name: "t", Figure: "Table X"}
	r.Tables = append(r.Tables, Table{
		Title:   "demo",
		Columns: []string{"config", "value"},
		Rows:    [][]string{{"IX", "1550K"}, {"Linux", "550K"}},
	})
	r.Notes = append(r.Notes, "a note")
	out := render(r)
	for _, want := range []string{"demo", "IX", "1550K", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func render(r *Result) string {
	var b strings.Builder
	r.Fprint(&b)
	return b.String()
}

// TestExperimentRegistry: every experiment cmd/ixbench documents is
// registered, and nothing else is.
func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"fig2", "fig3a", "fig3b", "fig3c", "fig4", "fig5", "fig6", "table2",
		"elastic", "incast", "chaos", "httpkv", "ablations",
	}
	for _, name := range want {
		if Experiments[name] == nil {
			t.Errorf("experiment %q missing from the registry", name)
		}
	}
	if len(Experiments) != len(want) {
		t.Errorf("registry holds %d experiments, want %d", len(Experiments), len(want))
	}
}

func TestScalesSane(t *testing.T) {
	for _, sc := range []Scale{Full, Quick} {
		if sc.Window <= 0 || sc.EchoClients <= 0 || sc.MemcClients <= 0 || sc.RPSSteps < 3 {
			t.Fatalf("bad scale %+v", sc)
		}
	}
	if Quick.EchoClients >= Full.EchoClients {
		t.Fatal("quick should be smaller than full")
	}
}

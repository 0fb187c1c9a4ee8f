package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// quickOpts returns small, fast options for tests.
func quickOpts(dataset string) Options {
	return Options{
		Dataset: dataset,
		Class:   datasets.CancelSingleAnnotation,
		Runs:    2,
		Seed:    3,
		Scale:   0.4,
	}
}

func TestWDistExperimentTrends(t *testing.T) {
	o := quickOpts("movielens")
	res, err := WDist(o, 6, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distance.Rows) != 3 || len(res.Size.Rows) != 3 {
		t.Fatalf("row counts: %d %d", len(res.Distance.Rows), len(res.Size.Rows))
	}
	// Prov-Approx trend: distance at wDist=1 must not exceed distance at
	// wDist=0 (more weight on distance -> closer summaries).
	d0 := res.Distance.Rows[0].Values[0]
	d1 := res.Distance.Rows[2].Values[0]
	if d1 > d0+1e-9 {
		t.Fatalf("distance increased with wDist: %g -> %g", d0, d1)
	}
	// size at wDist=1 must be >= size at wDist=0
	s0 := res.Size.Rows[0].Values[0]
	s1 := res.Size.Rows[2].Values[0]
	if s1 < s0-1e-9 {
		t.Fatalf("size decreased with wDist: %g -> %g", s0, s1)
	}
	// MovieLens has a clustering competitor: three series.
	if len(res.Distance.Series) != 3 {
		t.Fatalf("series = %v", res.Distance.Series)
	}
	// At wDist=1 Prov-Approx must beat Random on distance.
	randIdx := len(res.Distance.Rows[2].Values) - 1
	if res.Distance.Rows[2].Values[0] > res.Distance.Rows[2].Values[randIdx]+1e-9 {
		t.Fatalf("Prov-Approx (wDist=1) distance %g worse than Random %g",
			res.Distance.Rows[2].Values[0], res.Distance.Rows[2].Values[randIdx])
	}
}

func TestWDistDDPHasNoClustering(t *testing.T) {
	o := quickOpts("ddp")
	o.Class = datasets.CancelSingleAttribute
	res, err := WDist(o, 4, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distance.Series) != 2 {
		t.Fatalf("DDP series = %v, want Prov-Approx and Random only", res.Distance.Series)
	}
}

func TestTargetSizeExperiment(t *testing.T) {
	o := quickOpts("movielens")
	w0, err := o.Workload(0)
	if err != nil {
		t.Fatal(err)
	}
	base := w0.Prov.Size()
	tbl, err := TargetSize(o, []int{base / 2, base - 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Larger TARGET-SIZE -> earlier stop -> smaller (or equal) distance.
	if tbl.Rows[1].Values[0] > tbl.Rows[0].Values[0]+1e-9 {
		t.Fatalf("distance did not decrease with larger TARGET-SIZE: %v", tbl.Rows)
	}
}

func TestTargetDistExperiment(t *testing.T) {
	o := quickOpts("movielens")
	tbl, err := TargetDist(o, []float64{0.02, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	// Larger TARGET-DIST allows more merging -> size must not increase.
	if tbl.Rows[1].Values[0] > tbl.Rows[0].Values[0]+1e-9 {
		t.Fatalf("size did not shrink with larger TARGET-DIST: %v", tbl.Rows)
	}
}

func TestVaryingStepsExperiment(t *testing.T) {
	o := quickOpts("movielens")
	res, err := VaryingSteps(o, []int{2, 6}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	// More steps -> smaller size.
	row := res.Size.Rows[0]
	if row.Values[1] > row.Values[0]+1e-9 {
		t.Fatalf("more steps must shrink size: %v", row.Values)
	}
	// More steps -> distance not smaller.
	drow := res.Distance.Rows[0]
	if drow.Values[1] < drow.Values[0]-1e-9 {
		t.Fatalf("more steps must not reduce distance: %v", drow.Values)
	}
}

func TestUsageTimeExperiment(t *testing.T) {
	o := quickOpts("movielens")
	tbl, err := UsageTime(o, 6, 4, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		for _, v := range r.Values {
			if v <= 0 {
				t.Fatalf("non-positive usage ratio: %v", r.Values)
			}
		}
	}
}

func TestTimingExperiment(t *testing.T) {
	o := quickOpts("movielens")
	res, err := Timing(o, []float64{0.3, 0.6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CandidateTime.Rows) != 2 || len(res.SummarizationTime.Rows) != 2 {
		t.Fatal("row counts wrong")
	}
	// Larger scale -> larger provenance size on the x axis.
	if res.SummarizationTime.Rows[1].X <= res.SummarizationTime.Rows[0].X {
		t.Fatalf("sizes not increasing: %v", res.SummarizationTime.Rows)
	}
}

// TestTimingFromStats checks the per-candidate column, which Timing reads
// from the estimator's own counters (distance.Estimator.Stats()).
func TestTimingFromStats(t *testing.T) {
	o := quickOpts("movielens")
	res, err := Timing(o, []float64{0.3, 0.6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CandidateTime.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.CandidateTime.Rows))
	}
	for _, r := range res.CandidateTime.Rows {
		if r.Values[0] <= 0 {
			t.Fatalf("instrumented per-candidate time must be positive: %v", r.Values)
		}
	}
}

func TestSuiteQuickAllDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("suite is slow")
	}
	for _, ds := range []string{"movielens", "wikipedia", "ddp"} {
		o := quickOpts(ds)
		if ds == "ddp" {
			o.Class = datasets.CancelSingleAttribute
		}
		tables, err := Suite(o, true)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if len(tables) < 8 {
			t.Fatalf("%s: only %d tables", ds, len(tables))
		}
		for _, tb := range tables {
			if tb.Title == "" || len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table %+v", ds, tb)
			}
		}
	}
}

func TestUnknownDataset(t *testing.T) {
	o := Options{Dataset: "nope"}
	if _, err := WDist(o, 2, []float64{1}); err == nil {
		t.Fatal("unknown dataset must fail")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{Title: "T", XLabel: "x", Series: []string{"a", "b"}}
	tbl.AddRow(0.5, 1.25, 3)
	s := tbl.String()
	if !strings.Contains(s, "T") || !strings.Contains(s, "0.5") || !strings.Contains(s, "1.25") {
		t.Fatalf("String = %q", s)
	}
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "x,a,b\n0.5,1.25,3\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestPlot(t *testing.T) {
	tbl := &Table{Title: "P", XLabel: "x", Series: []string{"a", "b"}}
	tbl.AddRow(0, 1, 4)
	tbl.AddRow(1, 2, 3)
	tbl.AddRow(2, 4, 1)
	p := tbl.Plot(8)
	for _, frag := range []string{"P", "*", "o", "(x)", "a", "b", "4", "1"} {
		if !strings.Contains(p, frag) {
			t.Fatalf("plot missing %q:\n%s", frag, p)
		}
	}
	// degenerate cases
	empty := &Table{Title: "E", XLabel: "x", Series: []string{"a"}}
	if !strings.Contains(empty.Plot(8), "no data") {
		t.Fatal("empty table must say so")
	}
	flat := &Table{Title: "F", XLabel: "x", Series: []string{"a"}}
	flat.AddRow(0, 5)
	flat.AddRow(1, 5)
	if !strings.Contains(flat.Plot(0), "*") {
		t.Fatal("flat series must still plot")
	}
	// overlapping series render the overlap mark
	over := &Table{Title: "O", XLabel: "x", Series: []string{"a", "b"}}
	over.AddRow(0, 2, 2)
	over.AddRow(1, 3, 1)
	if !strings.Contains(over.Plot(8), "&") {
		t.Fatalf("overlap not marked:\n%s", over.Plot(8))
	}
}

func TestMeanAndTrim(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("mean(nil)")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if trimFloat(1.5000) != "1.5" || trimFloat(2) != "2" || trimFloat(0) != "0" {
		t.Fatalf("trimFloat: %q %q %q", trimFloat(1.5), trimFloat(2.0), trimFloat(0))
	}
}

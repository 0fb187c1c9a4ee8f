// Command prox-experiments regenerates every table and figure of the
// paper's evaluation chapter (Ch. 6) for the selected datasets, printing
// each series as an aligned table and optionally exporting CSV files.
//
// Usage:
//
//	prox-experiments [-datasets movielens,wikipedia,ddp] [-quick]
//	                 [-runs 3] [-seed 1] [-scale 1] [-out DIR]
//	                 [-class attribute|annotation]
//
// The quick mode shrinks the parameter grids for a fast smoke run; the
// full mode uses the paper's grids (wDist in 0..1 by 0.1, step budgets
// 20/30/40, etc.).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/datasets"
	"repro/internal/experiments"
)

func main() {
	dsFlag := flag.String("datasets", "movielens,wikipedia,ddp", "comma-separated datasets to run")
	quick := flag.Bool("quick", false, "shrink parameter grids for a fast run")
	runs := flag.Int("runs", 3, "provenance expressions to average per experiment")
	seed := flag.Int64("seed", 1, "generation seed")
	scale := flag.Float64("scale", 1, "dataset size multiplier")
	out := flag.String("out", "", "directory for CSV export (empty = no export)")
	class := flag.String("class", "attribute", "valuation class: attribute | annotation")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations (arity, sampling, parallelism)")
	plot := flag.Bool("plot", false, "render ASCII charts after each table")
	flag.Parse()

	kind := datasets.CancelSingleAttribute
	if *class == "annotation" {
		kind = datasets.CancelSingleAnnotation
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal("create output dir: %v", err)
		}
	}

	for _, ds := range strings.Split(*dsFlag, ",") {
		ds = strings.TrimSpace(ds)
		if ds == "" {
			continue
		}
		o := experiments.Options{
			Dataset: ds,
			Class:   kind,
			Runs:    *runs,
			Seed:    *seed,
			Scale:   *scale,
		}
		fmt.Printf("=== %s ===\n\n", ds)
		tables, err := experiments.Suite(o, *quick)
		if err != nil {
			fatal("%s: %v", ds, err)
		}
		if *ablations {
			ar, err := experiments.MergeArity(o, []int{2, 3, 4}, 0.5)
			if err != nil {
				fatal("%s arity ablation: %v", ds, err)
			}
			tables = append(tables, &ar.Distance, &ar.Size, &ar.Steps)
			sa, err := experiments.SamplingAccuracy(o, []int{0, 25, 100, 400})
			if err != nil {
				fatal("%s sampling ablation: %v", ds, err)
			}
			tables = append(tables, &sa.Error, &sa.Time)
			ps, err := experiments.ParallelSpeedup(o, []int{1, 2, 4, 8}, 10)
			if err != nil {
				fatal("%s parallel ablation: %v", ds, err)
			}
			tables = append(tables, ps)
		}
		for i, t := range tables {
			fmt.Println(t.String())
			if *plot {
				fmt.Println(t.Plot(12))
			}
			if *out != "" {
				name := fmt.Sprintf("%s_%02d_%s.csv", ds, i+1, slug(t.Title))
				f, err := os.Create(filepath.Join(*out, name))
				if err != nil {
					fatal("create %s: %v", name, err)
				}
				if err := t.CSV(f); err != nil {
					f.Close()
					fatal("write %s: %v", name, err)
				}
				f.Close()
			}
		}
	}
	if *out != "" {
		fmt.Printf("CSV series written to %s\n", *out)
	}
}

func slug(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			b.WriteByte('_')
		}
		if b.Len() >= 48 {
			break
		}
	}
	return strings.Trim(b.String(), "_")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "prox-experiments: "+format+"\n", args...)
	os.Exit(1)
}

// Command prox-summarize generates a dataset workload, runs the PROX
// summarization algorithm on it, and prints the original expression, the
// merge trace, and the resulting summary with its groups.
//
// Usage:
//
//	prox-summarize [-dataset movielens] [-class annotation|attribute]
//	               [-wdist 0.5] [-wsize 0.5] [-steps 10]
//	               [-target-size 1] [-target-dist 1]
//	               [-scale 1] [-seed 1] [-v]
//	               [-arity 2] [-parallel 1] [-samples 0]
//	               [-save bundle.json] [-load bundle.json] [-json out.json]
//	               [-extend-from summary.json] [-trace steps.jsonl]
//
// Candidates are scored by the incremental delta engine, the one scorer
// of every input the program accepts; an input it cannot plan is
// refused with an error naming why.
//
// With -trace, every merge step of Algorithm 1 is appended to the given
// file as one JSON object per line (score, distance, size ratio,
// candidate count, probe wall time) while the algorithm runs — the same
// quantities the evaluation chapter aggregates, observable per step.
//
// With -extend-from, the run warm-starts from a previously exported
// summary (-json output): the prior partition's groups enter already
// merged and the search only looks for the merges the (typically
// extended) expression still needs. The printed trace shows the seed
// prefix followed by the run's own steps.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"

	"repro/internal/codec"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ddp"
	"repro/internal/distance"
	"repro/internal/provenance"
)

func main() {
	dataset := flag.String("dataset", "movielens", "movielens | wikipedia | ddp")
	class := flag.String("class", "annotation", "valuation class: annotation | attribute")
	wdist := flag.Float64("wdist", 0.5, "distance weight")
	wsize := flag.Float64("wsize", 0.5, "size weight")
	steps := flag.Int("steps", 10, "maximum algorithm steps (0 = unlimited)")
	targetSize := flag.Int("target-size", 1, "size bound (1 disables)")
	targetDist := flag.Float64("target-dist", 1, "distance bound (1 disables)")
	scale := flag.Float64("scale", 1, "dataset size multiplier")
	seed := flag.Int64("seed", 1, "generation seed")
	verbose := flag.Bool("v", false, "print full expressions")
	arity := flag.Int("arity", 2, "merge arity (>= 2; the Ch. 9 k-ary generalization)")
	parallel := flag.Int("parallel", 1, "candidate-evaluation goroutines")
	samples := flag.Int("samples", 0, "Monte-Carlo valuation samples per distance (0 = enumerate the class)")
	saveBundle := flag.String("save", "", "write the generated workload as a JSON bundle to this file")
	loadBundle := flag.String("load", "", "summarize a saved JSON bundle instead of generating a dataset")
	jsonOut := flag.String("json", "", "write the summary trace as JSON to this file (- for stdout)")
	extendFrom := flag.String("extend-from", "", "warm-start from a summary previously exported with -json: its groups seed the partition")
	traceOut := flag.String("trace", "", "stream per-step trace events as JSONL to this file (- for stdout)")
	flag.Parse()

	r := rand.New(rand.NewSource(*seed))
	var w *datasets.Workload
	switch {
	case *loadBundle != "":
		var err error
		w, err = workloadFromBundle(*loadBundle)
		if err != nil {
			fatal("load: %v", err)
		}
	case *dataset == "movielens":
		cfg := datasets.DefaultMovieLensConfig()
		cfg.Users = scaleInt(cfg.Users, *scale)
		cfg.Movies = scaleInt(cfg.Movies, *scale)
		w = datasets.MovieLens(cfg, r)
	case *dataset == "wikipedia":
		cfg := datasets.DefaultWikipediaConfig()
		cfg.Users = scaleInt(cfg.Users, *scale)
		cfg.Pages = scaleInt(cfg.Pages, *scale)
		w = datasets.Wikipedia(cfg, r)
	case *dataset == "ddp":
		cfg := datasets.DefaultDDPConfig()
		cfg.Executions = scaleInt(cfg.Executions, *scale)
		w = datasets.DDP(cfg, r)
	default:
		fatal("unknown dataset %q", *dataset)
	}

	kind := datasets.CancelSingleAnnotation
	if *class == "attribute" {
		kind = datasets.CancelSingleAttribute
	}

	fmt.Printf("dataset   : %s (seed %d)\n", w.Name, *seed)
	fmt.Printf("size      : %d annotations occurrences, %d distinct annotations\n",
		w.Prov.Size(), len(w.Prov.Annotations()))
	fmt.Printf("class     : %s\n", kind)
	if *verbose {
		fmt.Printf("provenance:\n%s\n", w.Prov)
	}

	if *saveBundle != "" {
		b := &codec.Bundle{Name: w.Name, Universe: w.Universe, Taxonomy: w.Tax}
		switch e := w.Prov.(type) {
		case *provenance.Agg:
			b.Agg = e
		case *ddp.Expr:
			b.DDP = e
		}
		f, err := os.Create(*saveBundle)
		if err != nil {
			fatal("save: %v", err)
		}
		if err := codec.Save(f, b); err != nil {
			f.Close()
			fatal("save: %v", err)
		}
		f.Close()
		fmt.Printf("workload bundle written to %s\n", *saveBundle)
	}

	est := w.Estimator(kind)
	est.Parallelism = *parallel
	if *samples > 0 {
		est.Samples = *samples
		est.Rand = rand.New(rand.NewSource(*seed + 1))
	}
	cfg := core.Config{
		Policy:     w.Policy,
		Estimator:  est,
		WDist:      *wdist,
		WSize:      *wsize,
		TargetSize: *targetSize,
		TargetDist: *targetDist,
		MaxSteps:   *steps,
		MergeArity: *arity,
	}
	var traceClose func()
	if *traceOut != "" {
		var err error
		cfg.StepObserver, traceClose, err = traceObserver(*traceOut)
		if err != nil {
			fatal("trace: %v", err)
		}
	}
	var prior provenance.Groups
	if *extendFrom != "" {
		f, err := os.Open(*extendFrom)
		if err != nil {
			fatal("extend-from: %v", err)
		}
		prior, err = codec.ReadSummaryGroups(f)
		f.Close()
		if err != nil {
			fatal("extend-from: %v", err)
		}
		fmt.Printf("warm-start: %d seed groups from %s\n", len(prior), *extendFrom)
	}
	s, err := core.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	var sum *core.Summary
	if prior != nil {
		sum, err = s.Extend(context.Background(), w.Prov, prior)
	} else {
		sum, err = s.Summarize(w.Prov)
	}
	if traceClose != nil {
		traceClose()
	}
	if err != nil {
		fatal("%v", err)
	}
	if sum.ExtendedFrom > 0 {
		fmt.Printf("extended  : %d seed merges replayed, %d new steps\n",
			sum.ExtendedFrom, len(sum.Steps)-sum.ExtendedFrom)
	}
	if *traceOut != "" && *traceOut != "-" {
		fmt.Printf("step trace written to %s\n", *traceOut)
	}

	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fatal("json: %v", err)
			}
			defer f.Close()
			out = f
		}
		if err := codec.WriteSummary(out, sum); err != nil {
			fatal("json: %v", err)
		}
		if *jsonOut != "-" {
			fmt.Printf("summary JSON written to %s\n", *jsonOut)
		}
	}

	fmt.Printf("\n--- merge trace (%d steps, stop: %s, %.1f ms) ---\n",
		len(sum.Steps), sum.StopReason, float64(sum.Elapsed.Microseconds())/1000)
	for i, st := range sum.Steps {
		parts := make([]string, len(st.Members))
		for j, m := range st.Members {
			parts[j] = string(m)
		}
		fmt.Printf("%3d. %s -> %s   (dist %.4f, size %d)\n",
			i+1, strings.Join(parts, " + "), st.New, st.Dist, st.Size)
	}

	fmt.Printf("\n--- summary ---\n")
	fmt.Printf("size %d (%.0f%% of original), distance %.4f\n",
		sum.Expr.Size(), 100*float64(sum.Expr.Size())/float64(w.Prov.Size()), sum.Dist)
	fmt.Printf("groups:\n")
	names := make([]string, 0, len(sum.Groups))
	for name := range sum.Groups {
		names = append(names, string(name))
	}
	sort.Strings(names)
	for _, name := range names {
		members := sum.Groups[provenance.Annotation(name)]
		if len(members) < 2 {
			continue
		}
		fmt.Printf("  %s = %v\n", name, members)
	}
	if *verbose {
		fmt.Printf("\nexpression:\n%s\n", sum.Expr)
	}
}

// traceEvent is the JSONL projection of one core.StepEvent.
type traceEvent struct {
	Step          int      `json:"step"`
	Members       []string `json:"members"`
	New           string   `json:"new"`
	Score         float64  `json:"score"`
	RDist         float64  `json:"rDist"`
	RSize         float64  `json:"rSize"`
	Size          int      `json:"size"`
	Candidates    int      `json:"candidates"`
	CandidateTime float64  `json:"candidateTimeMs"`
	Elapsed       float64  `json:"elapsedMs"`
}

// traceObserver returns a StepObserver streaming JSONL events to path
// ("-" for stdout) and a close function to flush the file.
func traceObserver(path string) (core.StepObserver, func(), error) {
	out := os.Stdout
	closeFn := func() {}
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		out = f
		closeFn = func() { f.Close() }
	}
	enc := json.NewEncoder(out)
	obs := func(ev core.StepEvent) {
		members := make([]string, len(ev.Members))
		for i, m := range ev.Members {
			members[i] = string(m)
		}
		_ = enc.Encode(traceEvent{
			Step:          ev.Step,
			Members:       members,
			New:           string(ev.New),
			Score:         ev.Score,
			RDist:         ev.RDist,
			RSize:         ev.RSize,
			Size:          ev.Size,
			Candidates:    ev.Candidates,
			CandidateTime: float64(ev.CandidateTime.Microseconds()) / 1000,
			Elapsed:       float64(ev.Elapsed.Microseconds()) / 1000,
		})
	}
	return obs, closeFn, nil
}

// workloadFromBundle builds a summarizable workload from a saved bundle:
// the expression and universe come from the file; constraints default to
// same-table plus any-shared-attribute; distances use the Euclidean
// VAL-FUNC (aggregated expressions) or the DDP cost difference.
func workloadFromBundle(path string) (*datasets.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := codec.Load(f)
	if err != nil {
		return nil, err
	}
	u := b.Universe
	if u == nil {
		u = provenance.NewUniverse()
	}
	w := &datasets.Workload{
		Name:     b.Name,
		Universe: u,
		Tax:      b.Taxonomy,
	}
	if w.Name == "" {
		w.Name = "bundle:" + path
	}
	pol := constraints.NewPolicy(u, constraints.SameTable(), constraints.SharedAttr())
	if b.Taxonomy != nil {
		pol = pol.WithTaxonomy(b.Taxonomy)
	}
	w.Policy = pol
	if b.Agg != nil {
		w.Prov = b.Agg
		w.VF = distance.Euclidean()
		if vec, ok := b.Agg.Eval(provenance.AllTrue).(provenance.Vector); ok {
			total := 0.0
			for _, v := range vec {
				total += v * v
			}
			if total > 0 {
				w.MaxError = math.Sqrt(total)
			}
		}
	} else {
		w.Prov = b.DDP
		w.VF = ddp.ValFunc(b.DDP.Penalty())
		w.MaxError = b.DDP.Penalty()
	}
	// collect every attribute name for the attribute-cancelling class
	attrs := map[string]bool{}
	for _, a := range u.Annotations() {
		for k := range u.AttrsOf(a) {
			attrs[k] = true
		}
	}
	for k := range attrs {
		w.AttrNames = append(w.AttrNames, k)
	}
	sort.Strings(w.AttrNames)
	return w, nil
}

func scaleInt(base int, scale float64) int {
	v := int(float64(base) * scale)
	if v < 2 {
		v = 2
	}
	return v
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "prox-summarize: "+format+"\n", args...)
	os.Exit(1)
}

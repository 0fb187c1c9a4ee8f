package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/provenance"
)

// WDistResult holds the two tables of the wDist experiment (Sec. 6.4):
// Figures 6.1a/6.6a/6.8a (average distance as a function of wDist) and
// 6.2a/6.7a/6.9a (average size as a function of wDist).
type WDistResult struct {
	Distance Table
	Size     Table
}

// WDist runs the wDist experiment: sweep wDist with TARGET-SIZE and
// TARGET-DIST disabled and the step budget fixed, comparing Prov-Approx
// with the Clustering and Random baselines (which ignore wDist and are
// averaged across the sweep, reported as flat series).
func WDist(o Options, maxSteps int, wDists []float64) (*WDistResult, error) {
	o = o.normalized()
	params := func(wd float64) runParams {
		return runParams{wDist: wd, wSize: 1 - wd, targetSize: 1, targetDist: 1, maxSteps: maxSteps}
	}

	proxDist := make([][]float64, len(wDists))
	proxSize := make([][]float64, len(wDists))
	var clusterDist, clusterSize, randDist, randSize []float64
	hasClustering := false

	for run := 0; run < o.Runs; run++ {
		w, err := o.Workload(run)
		if err != nil {
			return nil, err
		}
		for i, wd := range wDists {
			sum, err := o.runProx(w, params(wd), run)
			if err != nil {
				return nil, err
			}
			d, s := summaryStats(sum)
			proxDist[i] = append(proxDist[i], d)
			proxSize[i] = append(proxSize[i], s)
		}
		// baselines do not depend on wDist: one execution per run
		p := params(1)
		if cs, err := o.runClustering(w, p); err != nil {
			return nil, err
		} else if cs != nil {
			hasClustering = true
			d, s := summaryStats(cs)
			clusterDist = append(clusterDist, d)
			clusterSize = append(clusterSize, s)
		}
		rs, err := o.runRandom(w, p, run)
		if err != nil {
			return nil, err
		}
		d, s := summaryStats(rs)
		randDist = append(randDist, d)
		randSize = append(randSize, s)
	}

	series := []string{algoProx.String()}
	if hasClustering {
		series = append(series, algoClustering.String())
	}
	series = append(series, algoRandom.String())

	res := &WDistResult{
		Distance: Table{
			Title:  fmt.Sprintf("Average Distance as a Function of wDist (%s, %s, ≤%d steps)", o.Dataset, o.Class, maxSteps),
			XLabel: "wDist", Series: series,
		},
		Size: Table{
			Title:  fmt.Sprintf("Average Size as a Function of wDist (%s, %s, ≤%d steps)", o.Dataset, o.Class, maxSteps),
			XLabel: "wDist", Series: series,
		},
	}
	for i, wd := range wDists {
		drow := []float64{mean(proxDist[i])}
		srow := []float64{mean(proxSize[i])}
		if hasClustering {
			drow = append(drow, mean(clusterDist))
			srow = append(srow, mean(clusterSize))
		}
		drow = append(drow, mean(randDist))
		srow = append(srow, mean(randSize))
		res.Distance.AddRow(wd, drow...)
		res.Size.AddRow(wd, srow...)
	}
	return res, nil
}

// TargetSize runs the TARGET-SIZE experiment (Sec. 6.5, Figures
// 6.1b/6.6b/6.8b): wDist = 1 and TARGET-DIST disabled, sweeping the size
// bound and reporting the average distance at stop per algorithm.
func TargetSize(o Options, targets []int) (*Table, error) {
	o = o.normalized()
	t := &Table{
		Title:  fmt.Sprintf("Average Distance as a Function of TARGET-SIZE (%s, %s)", o.Dataset, o.Class),
		XLabel: "TARGET-SIZE",
	}
	proxD := make([][]float64, len(targets))
	clusD := make([][]float64, len(targets))
	randD := make([][]float64, len(targets))
	hasClustering := false

	for run := 0; run < o.Runs; run++ {
		w, err := o.Workload(run)
		if err != nil {
			return nil, err
		}
		for i, ts := range targets {
			p := runParams{wDist: 1, wSize: 0, targetSize: ts, targetDist: 1}
			sum, err := o.runProx(w, p, run)
			if err != nil {
				return nil, err
			}
			proxD[i] = append(proxD[i], sum.Dist)
			if cs, err := o.runClustering(w, p); err != nil {
				return nil, err
			} else if cs != nil {
				hasClustering = true
				clusD[i] = append(clusD[i], cs.Dist)
			}
			rs, err := o.runRandom(w, p, run)
			if err != nil {
				return nil, err
			}
			randD[i] = append(randD[i], rs.Dist)
		}
	}

	t.Series = []string{algoProx.String()}
	if hasClustering {
		t.Series = append(t.Series, algoClustering.String())
	}
	t.Series = append(t.Series, algoRandom.String())
	for i, ts := range targets {
		row := []float64{mean(proxD[i])}
		if hasClustering {
			row = append(row, mean(clusD[i]))
		}
		row = append(row, mean(randD[i]))
		t.AddRow(float64(ts), row...)
	}
	return t, nil
}

// TargetDist runs the TARGET-DIST experiment (Sec. 6.6, Figures
// 6.2b/6.7b/6.9b): wSize = 1 and TARGET-SIZE disabled, sweeping the
// distance bound and reporting the average summary size at stop per
// algorithm.
func TargetDist(o Options, targets []float64) (*Table, error) {
	o = o.normalized()
	t := &Table{
		Title:  fmt.Sprintf("Average Size as a Function of TARGET-DIST (%s, %s)", o.Dataset, o.Class),
		XLabel: "TARGET-DIST",
	}
	proxS := make([][]float64, len(targets))
	clusS := make([][]float64, len(targets))
	randS := make([][]float64, len(targets))
	hasClustering := false

	for run := 0; run < o.Runs; run++ {
		w, err := o.Workload(run)
		if err != nil {
			return nil, err
		}
		for i, td := range targets {
			p := runParams{wDist: 0, wSize: 1, targetSize: 1, targetDist: td}
			sum, err := o.runProx(w, p, run)
			if err != nil {
				return nil, err
			}
			proxS[i] = append(proxS[i], float64(sum.Expr.Size()))
			if cs, err := o.runClustering(w, p); err != nil {
				return nil, err
			} else if cs != nil {
				hasClustering = true
				clusS[i] = append(clusS[i], float64(cs.Expr.Size()))
			}
			rs, err := o.runRandom(w, p, run)
			if err != nil {
				return nil, err
			}
			randS[i] = append(randS[i], float64(rs.Expr.Size()))
		}
	}

	t.Series = []string{algoProx.String()}
	if hasClustering {
		t.Series = append(t.Series, algoClustering.String())
	}
	t.Series = append(t.Series, algoRandom.String())
	for i, td := range targets {
		row := []float64{mean(proxS[i])}
		if hasClustering {
			row = append(row, mean(clusS[i]))
		}
		row = append(row, mean(randS[i]))
		t.AddRow(td, row...)
	}
	return t, nil
}

// VaryingStepsResult holds the two tables of the varying-steps experiment
// (Sec. 6.7, Figures 6.3a/6.3b).
type VaryingStepsResult struct {
	Distance Table
	Size     Table
}

// VaryingSteps sweeps wDist for several step budgets, Prov-Approx only,
// showing the algorithm's progress (more steps → smaller size, larger
// distance).
func VaryingSteps(o Options, stepCounts []int, wDists []float64) (*VaryingStepsResult, error) {
	o = o.normalized()
	series := make([]string, len(stepCounts))
	for i, s := range stepCounts {
		series[i] = fmt.Sprintf("%d steps", s)
	}
	res := &VaryingStepsResult{
		Distance: Table{
			Title:  fmt.Sprintf("Average Distance vs wDist for Varying Number of Steps (%s)", o.Dataset),
			XLabel: "wDist", Series: series,
		},
		Size: Table{
			Title:  fmt.Sprintf("Average Size vs wDist for Varying Number of Steps (%s)", o.Dataset),
			XLabel: "wDist", Series: series,
		},
	}
	dist := make([][][]float64, len(wDists))
	size := make([][][]float64, len(wDists))
	for i := range wDists {
		dist[i] = make([][]float64, len(stepCounts))
		size[i] = make([][]float64, len(stepCounts))
	}
	for run := 0; run < o.Runs; run++ {
		w, err := o.Workload(run)
		if err != nil {
			return nil, err
		}
		for i, wd := range wDists {
			for j, steps := range stepCounts {
				p := runParams{wDist: wd, wSize: 1 - wd, targetSize: 1, targetDist: 1, maxSteps: steps}
				sum, err := o.runProx(w, p, run)
				if err != nil {
					return nil, err
				}
				d, s := summaryStats(sum)
				dist[i][j] = append(dist[i][j], d)
				size[i][j] = append(size[i][j], s)
			}
		}
	}
	for i, wd := range wDists {
		drow := make([]float64, len(stepCounts))
		srow := make([]float64, len(stepCounts))
		for j := range stepCounts {
			drow[j] = mean(dist[i][j])
			srow[j] = mean(size[i][j])
		}
		res.Distance.AddRow(wd, drow...)
		res.Size.AddRow(wd, srow...)
	}
	return res, nil
}

// UsageTime runs the usage-time experiment (Sec. 6.8, Figures 6.4a/6.4b):
// the ratio between the average evaluation time of valuations on the
// summary and on the original provenance, as a function of wDist, with
// nVals randomly chosen valuations. Ratios below 1 mean the summary is
// faster to use.
func UsageTime(o Options, maxSteps, nVals int, wDists []float64) (*Table, error) {
	o = o.normalized()
	t := &Table{
		Title:  fmt.Sprintf("Usage Time Ratio as a Function of wDist (%s, ≤%d steps)", o.Dataset, maxSteps),
		XLabel: "wDist",
	}
	proxR := make([][]float64, len(wDists))
	var clusR, randR []float64
	hasClustering := false
	rnd := rand.New(rand.NewSource(o.Seed + 271))

	for run := 0; run < o.Runs; run++ {
		w, err := o.Workload(run)
		if err != nil {
			return nil, err
		}
		// choose nVals random valuations from the class
		class := w.Class(o.Class)
		vals := make([]provenance.Valuation, nVals)
		for i := range vals {
			vals[i] = class.Sample(rnd)
		}
		origTime := evalTime(w.Prov, vals, nil, nil)

		p := runParams{targetSize: 1, targetDist: 1, maxSteps: maxSteps}
		for i, wd := range wDists {
			pp := p
			pp.wDist, pp.wSize = wd, 1-wd
			sum, err := o.runProx(w, pp, run)
			if err != nil {
				return nil, err
			}
			st := evalTime(sum.Expr, vals, sum.Groups, nil)
			proxR[i] = append(proxR[i], ratio(st, origTime))
		}
		if cs, err := o.runClustering(w, p); err != nil {
			return nil, err
		} else if cs != nil {
			hasClustering = true
			st := evalTime(cs.Expr, vals, cs.Groups, nil)
			clusR = append(clusR, ratio(st, origTime))
		}
		rs, err := o.runRandom(w, p, run)
		if err != nil {
			return nil, err
		}
		st := evalTime(rs.Expr, vals, rs.Groups, nil)
		randR = append(randR, ratio(st, origTime))
	}

	t.Series = []string{algoProx.String()}
	if hasClustering {
		t.Series = append(t.Series, algoClustering.String())
	}
	t.Series = append(t.Series, algoRandom.String())
	for i, wd := range wDists {
		row := []float64{mean(proxR[i])}
		if hasClustering {
			row = append(row, mean(clusR))
		}
		row = append(row, mean(randR))
		t.AddRow(wd, row...)
	}
	return t, nil
}

// evalTime measures the average wall time of evaluating the expression
// under the valuations, repeated for timing stability. When groups is
// non-nil the valuations are first materialized into explicit truth
// tables over the expression's annotations (the form in which a user of
// the summary poses them); materialization happens outside the timed
// region, exactly as the paper times valuation evaluation, not valuation
// construction.
func evalTime(e provenance.Expression, vals []provenance.Valuation, groups provenance.Groups, phi provenance.Combiner) time.Duration {
	if phi == nil {
		phi = provenance.CombineOr
	}
	use := make([]provenance.Valuation, len(vals))
	for i, v := range vals {
		if groups != nil {
			use[i] = provenance.MaterializeValuation(v, groups, phi, e.Annotations())
		} else {
			use[i] = v
		}
	}
	const reps = 25
	start := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, v := range use {
			e.Eval(v)
		}
	}
	return time.Since(start) / (reps * time.Duration(len(vals)))
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// TimingResult holds the two tables of the summarization-time experiment
// (Sec. 6.9, Figures 6.5a/6.5b): average candidate computation time and
// total summarization time, as functions of provenance size.
type TimingResult struct {
	CandidateTime     Table // microseconds per candidate
	SummarizationTime Table // milliseconds per run
}

// Timing generates workloads at multiple scales and measures, per
// provenance size, the average per-candidate computation time and the
// total summarization time (wDist = 1, 50-step budget as in the paper).
// The per-candidate column comes from the estimator's own
// instrumentation (distance.Estimator.Stats()), the counters a live
// server exports on /metrics, so the Sec. 6.9 figures and those counters
// cannot drift apart.
func Timing(o Options, scales []float64, maxSteps int) (*TimingResult, error) {
	o = o.normalized()
	res := &TimingResult{
		CandidateTime: Table{
			Title:  fmt.Sprintf("Average Candidate Computation Time vs Provenance Size (%s)", o.Dataset),
			XLabel: "size", Series: []string{"µs/candidate"},
		},
		SummarizationTime: Table{
			Title:  fmt.Sprintf("Summarization Time vs Provenance Size (%s)", o.Dataset),
			XLabel: "size", Series: []string{"ms"},
		},
	}
	for _, scale := range scales {
		oo := o
		oo.Scale = scale
		var candUS, sumMS, sizes []float64
		for run := 0; run < o.Runs; run++ {
			w, err := oo.Workload(run)
			if err != nil {
				return nil, err
			}
			p := runParams{wDist: 1, wSize: 0, targetSize: 1, targetDist: 1, maxSteps: maxSteps}
			sum, est, err := oo.runProxInstrumented(w, p, run)
			if err != nil {
				return nil, err
			}
			// Cohort scoring amortizes one DistanceDelta sweep over all
			// its candidates, so the per-candidate figure divides total
			// scoring wall time — sweeps plus Distance calls — by total
			// candidates scored (each Distance call scores one).
			st := est.Stats()
			if n := st.DistanceCalls + st.DeltaCandidates; n > 0 {
				totalUS := float64(st.DistanceTime.Microseconds() + st.DeltaTime.Microseconds())
				candUS = append(candUS, totalUS/float64(n))
			}
			sumMS = append(sumMS, float64(sum.Elapsed.Microseconds())/1000)
			sizes = append(sizes, float64(w.Prov.Size()))
		}
		res.CandidateTime.AddRow(mean(sizes), mean(candUS))
		res.SummarizationTime.AddRow(mean(sizes), mean(sumMS))
	}
	return res, nil
}

// Suite runs every experiment of Ch. 6 for one dataset at the given
// options, returning all tables in figure order. The wDist grid, step
// budgets and bound grids follow the paper's figures; quick mode shrinks
// the grids for fast smoke runs.
func Suite(o Options, quick bool) ([]*Table, error) {
	o = o.normalized()
	wGrid := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	steps := 20
	stepGrid := []int{20, 30, 40}
	scaleGrid := []float64{0.5, 0.75, 1, 1.5, 2}
	if o.Dataset == "ddp" {
		steps = 10
	}
	if quick {
		wGrid = []float64{0, 0.5, 1}
		steps = 5
		stepGrid = []int{3, 5}
		scaleGrid = []float64{0.5, 1}
	}

	var tables []*Table
	wd, err := WDist(o, steps, wGrid)
	if err != nil {
		return nil, err
	}
	tables = append(tables, &wd.Distance, &wd.Size)

	// TARGET-SIZE grid: fractions of the first workload's size.
	w0, err := o.Workload(0)
	if err != nil {
		return nil, err
	}
	base := w0.Prov.Size()
	tsGrid := []int{base / 5, base * 2 / 5, base * 3 / 5, base * 4 / 5}
	if quick {
		tsGrid = []int{base / 2, base * 3 / 4}
	}
	for i, v := range tsGrid {
		if v < 1 {
			tsGrid[i] = 1
		}
	}
	ts, err := TargetSize(o, tsGrid)
	if err != nil {
		return nil, err
	}
	tables = append(tables, ts)

	tdGrid := []float64{0.01, 0.03, 0.05, 0.1, 0.2}
	if quick {
		tdGrid = []float64{0.05, 0.2}
	}
	td, err := TargetDist(o, tdGrid)
	if err != nil {
		return nil, err
	}
	tables = append(tables, td)

	vs, err := VaryingSteps(o, stepGrid, wGrid)
	if err != nil {
		return nil, err
	}
	tables = append(tables, &vs.Distance, &vs.Size)

	for _, budget := range stepGrid[:2] {
		ut, err := UsageTime(o, budget, 10, wGrid)
		if err != nil {
			return nil, err
		}
		tables = append(tables, ut)
	}

	tm, err := Timing(o, scaleGrid, 50)
	if err != nil {
		return nil, err
	}
	tables = append(tables, &tm.CandidateTime, &tm.SummarizationTime)
	return tables, nil
}

package core

import (
	"testing"

	"repro/internal/distance"
	"repro/internal/provenance"
)

// refDistance is Definition 3.2.2 read straight off the semantics, the
// oracle the scorers are pinned to: under each valuation v of vals, in
// order, the original is evaluated by its own Eval, aligned into the
// candidate's result space through cum, and compared by the VAL-FUNC
// against the candidate evaluated under the extended valuation v^{h,φ}
// — no arena, no caches, no memos — then averaged and normalized like
// distance.Estimator does.
func refDistance(est *distance.Estimator, vals []provenance.Valuation, p0, pc provenance.Expression, cum provenance.Mapping, groups provenance.Groups) float64 {
	if len(vals) == 0 {
		return 0
	}
	var total float64
	for _, v := range vals {
		orig := pc.AlignResult(p0.Eval(v), cum)
		total += est.VF.F(v, orig, pc.Eval(provenance.ExtendValuation(v, groups, est.Phi)))
	}
	d := total / float64(len(vals))
	if est.MaxError > 0 {
		d /= est.MaxError
		if d > 1 {
			d = 1
		}
	}
	return d
}

// checkStepsByRef replays sum's merge trace under candidate-major
// reference scoring: at every step each constraint-satisfying pair of
// the current annotations is materialized and scored by refDistance, and
// the recorded merge must be a minimal-score pair whose distance and
// score are bit-identical to the reference. nextVals returns the
// valuations of the summarizer's next sweep — the enumerated class, or
// the next shared sample set — and is called once for the run's initial
// distance and once per step. The run must be pairwise, uncapped, and
// free of Prop. 4.2.1 pre-step merges.
func checkStepsByRef(t *testing.T, cfg Config, p0 provenance.Expression, sum *Summary, nextVals func() []provenance.Valuation) {
	t.Helper()
	origAnns := p0.Annotations()
	origSize := p0.Size()
	cur, cum := p0, provenance.NewMapping()
	nextVals() // the initial distance's sweep
	for i, st := range sum.Steps {
		vals := nextVals()
		score := func(members ...provenance.Annotation) (float64, float64) {
			h := provenance.MergeMapping(probeAnn, members...)
			next, nextCum := cur.Apply(h), cum.Compose(h)
			d := refDistance(cfg.Estimator, vals, p0, next, nextCum, provenance.GroupsOf(origAnns, nextCum))
			rSize := float64(next.Size()) / float64(origSize)
			return d, cfg.WDist*d + cfg.WSize*rSize
		}
		best := 0.0
		found := false
		anns := cur.Annotations()
		for a := 0; a < len(anns); a++ {
			for b := a + 1; b < len(anns); b++ {
				if !cfg.Policy.CanMerge(anns[a], anns[b]) {
					continue
				}
				if _, s := score(anns[a], anns[b]); !found || s < best {
					best, found = s, true
				}
			}
		}
		d, s := score(st.Members...)
		if !found || d != st.Dist || s != st.Score || s > best+1e-12 {
			t.Fatalf("step %d %v: dist %v score %v, reference dist %v score %v (best %v)", i+1, st.Members, st.Dist, st.Score, d, s, best)
		}
		h := provenance.MergeMapping(st.New, st.Members...)
		cur, cum = cur.Apply(h), cum.Compose(h)
	}
	if got, want := sum.Expr.String(), cur.String(); got != want {
		t.Fatalf("summary %s, replayed trace gives %s (pre-step merges?)", got, want)
	}
}

// CheckStepsByRef exports the replay oracle to the external test
// package, whose seeded workloads cannot be built from package core.
var CheckStepsByRef = checkStepsByRef

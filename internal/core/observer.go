package core

import (
	"time"

	"repro/internal/provenance"
)

// StepEvent describes one committed merge step of Algorithm 1, carrying
// exactly the per-step quantities the paper's evaluation chapter measures
// (candidate computation cost, chosen score, distance/size trajectory) so
// they can be traced live instead of only aggregated post-hoc.
type StepEvent struct {
	// Step is the 1-based merge index within this Summarize run.
	Step int
	// Members are the annotations merged at this step; New is the summary
	// annotation they were mapped to.
	Members []provenance.Annotation
	New     provenance.Annotation
	// Score is the winning CandidateScore = wDist·rDist + wSize·rSize;
	// RDist and RSize are its two components for the chosen candidate
	// (RDist is the normalized distance after the merge, RSize the size
	// after the merge divided by the original size).
	Score, RDist, RSize float64
	// Size is the expression size after the merge.
	Size int
	// Candidates counts the candidate evaluations performed to choose
	// this step (pair probes plus k-ary growth probes).
	Candidates int
	// CandidateTime is the wall time spent probing candidates this step
	// (summed across workers when Estimator.Parallelism > 1, so it can exceed the
	// step's elapsed wall time).
	CandidateTime time.Duration
	// DeltaSkips counts candidates the delta-scoring engine pruned this
	// step without a distance evaluation (0 under other engines).
	DeltaSkips uint64
	// ProbesCarried counts the candidates whose compiled probe this step
	// carried over from the previous step instead of rebuilding it.
	ProbesCarried uint64
	// Elapsed is the wall time since Summarize started, measured when the
	// step was committed.
	Elapsed time.Duration
}

// StepObserver receives merge-step trace events; see Config.StepObserver.
type StepObserver func(StepEvent)

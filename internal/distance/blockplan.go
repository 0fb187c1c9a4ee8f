package distance

import "repro/internal/provenance"

// This file declares the contract between the blocked delta sweep
// (Estimator.DistanceDelta) and expression kinds the arena does not
// compile. An aggregation's provenance.Plan drives the sweep directly;
// any other expression that implements BlockPlanner hands the sweep a
// BlockPlan instead, and the sweep keeps everything else shared: truth
// columns, φ word-combines, the skip on unchanged lanes, the worker
// partition and the valuation-order fold. The DDP tropical sum (package
// ddp, which distance cannot import) is the one implementation.

// BlockPlanner is implemented by expressions that compile their own
// valuation-blocked delta-scoring plan.
type BlockPlanner interface {
	// BlockPlan compiles the expression once for a summarization step.
	// It returns nil when the expression cannot be planned soundly; the
	// caller then falls back to materialized scoring.
	BlockPlan() BlockPlan
}

// BlockPlan is one step's compiled expression, shared read-only by every
// probe and worker of the step. Its results carry no coordinate keys —
// the expression's AlignResult is the identity — so the sweep never
// re-aligns the original's results for a probed candidate.
type BlockPlan interface {
	// Annotations returns the plan's annotations in dense-id order: the
	// ids of the provenance.TruthBlock handed to EvalBlock.
	Annotations() []provenance.Annotation
	// AnnID returns a's dense id and whether a occurs in the expression.
	AnnID(a provenance.Annotation) (int32, bool)
	// Probe compiles the candidate that merges members into newAnn,
	// without materializing it. It returns nil when the probe cannot be
	// compiled soundly (newAnn occurs in the expression, reserved
	// annotations).
	Probe(members []provenance.Annotation, newAnn provenance.Annotation) BlockProbe
	// NewEvaluator returns one sweep worker's private evaluation state.
	NewEvaluator() BlockEvaluator
}

// BlockProbe is one compiled candidate merge of a BlockPlan.
type BlockProbe interface {
	// Size is the candidate's provenance size, equal to
	// Apply(MergeMapping(newAnn, members...)).Size().
	Size() int
	// Reshapes reports that the candidate's evaluation can differ from
	// the base's even on lanes where no member's truth changes, so the
	// sweep must not reuse the base value for it.
	Reshapes() bool
}

// BlockEvaluator evaluates a BlockPlan on 64-lane valuation blocks. It is
// owned by one worker at a time.
type BlockEvaluator interface {
	// EvalBlock evaluates the planned expression on every lane of tb,
	// writing lane j's result to out[j], and keeps the block's base pass
	// for the CandEvalBlock calls that follow.
	EvalBlock(tb *provenance.TruthBlock, out []provenance.Result)
	// CandEvalBlock writes the candidate's result on every lane of
	// changed to out, reading the base pass of the last EvalBlock.
	// merged holds the merged group's φ-truths. Results are
	// bit-identical to evaluating the materialized candidate.
	CandEvalBlock(pr BlockProbe, merged, changed uint64, out []provenance.Result)
	// Release recycles the evaluator, which must not be used afterwards,
	// and returns the number of sub-expression lane re-evaluations its
	// CandEvalBlock calls did.
	Release() (subtreeEvals uint64)
}

// Package prox is the public API of this repository: a Go implementation
// of PROX — approximated summarization of data provenance (Ainy, Bourhis,
// Davidson, Deutch, Milo; EDBT 2016 / TAU thesis).
//
// PROX summarizes semiring provenance expressions: given a provenance
// polynomial over annotations (users, tuples, movies, database facts), it
// searches for a mapping of annotations to coarser summary annotations so
// that the summarized expression is much smaller yet behaves almost
// identically under a class of truth valuations — so explanations stay
// readable and hypothetical-scenario provisioning stays accurate while
// getting faster.
//
// The package re-exports the library's building blocks:
//
//   - the provenance algebra (Agg, Tensor, Expr, evaluation, mappings),
//   - valuation classes and combiner functions (Sec. 2.3, 3.2),
//   - the distance machinery with its sampling estimator (Sec. 4.1),
//   - semantic constraints and taxonomies (Sec. 3.2),
//   - the summarization algorithm (Algorithm 1) and the Clustering and
//     Random baselines (Ch. 6),
//   - the three dataset generators (Ch. 5), the experiment harness
//     (Ch. 6), the K-relation/workflow substrate (Ch. 2) and the PROX
//     web system (Ch. 7).
//
// Quick start:
//
//	p := prox.NewAgg(prox.AggMax,
//	    prox.Tensor{Prov: prox.V("U1"), Value: 3, Count: 1, Group: "MatchPoint"},
//	    prox.Tensor{Prov: prox.V("U2"), Value: 5, Count: 1, Group: "MatchPoint"},
//	)
//	u := prox.NewUniverse()
//	u.Add("U1", "users", prox.Attrs{"gender": "F"})
//	u.Add("U2", "users", prox.Attrs{"gender": "F"})
//	sum, err := prox.Summarize(p, prox.Options{
//	    Universe: u,
//	    Rules:    []prox.Rule{prox.SameTable(), prox.SharedAttr("gender")},
//	    WDist:    0.5, WSize: 0.5,
//	})
package prox

import (
	"io"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ddp"
	"repro/internal/distance"
	"repro/internal/experiments"
	"repro/internal/krel"
	"repro/internal/parse"
	"repro/internal/provenance"
	"repro/internal/server"
	"repro/internal/taxonomy"
	"repro/internal/valuation"
	"repro/internal/workflow"
)

// --- provenance algebra ---

// Core vocabulary types of the provenance model (Ch. 2–3).
type (
	// Annotation is a basic provenance token.
	Annotation = provenance.Annotation
	// Attrs holds the semantic attributes of an annotation's object.
	Attrs = provenance.Attrs
	// Universe registers annotation metadata (tables and attributes).
	Universe = provenance.Universe
	// Expr is a node of an N[Ann] provenance polynomial.
	Expr = provenance.Expr
	// Tensor pairs a polynomial with an aggregated (value, count).
	Tensor = provenance.Tensor
	// Agg is an aggregated provenance expression (⊕ of tensors). The
	// summarizer scores only an Agg in Simplify normal form, with every
	// Sum and Prod listing its children in key order: build one with
	// NewAgg, or Simplify one built by hand.
	Agg = provenance.Agg
	// AggKind selects the aggregation monoid.
	AggKind = provenance.AggKind
	// Mapping is a summarization homomorphism h : Ann → Ann'.
	Mapping = provenance.Mapping
	// Groups is the inverse view of a cumulative mapping.
	Groups = provenance.Groups
	// Valuation is a truth valuation on annotations.
	Valuation = provenance.Valuation
	// Combiner is the φ function extending valuations to summaries.
	Combiner = provenance.Combiner
	// Result is the value of an expression under a valuation.
	Result = provenance.Result
	// Vector is a group-keyed aggregation result.
	Vector = provenance.Vector
	// Scalar is a single-value result.
	Scalar = provenance.Scalar
	// Expression is the interface Algorithm 1 summarizes. Summarize
	// scores two implementations, *provenance.Agg (aggregated semiring
	// provenance, NewAgg) and *ddp.Expr (DDP tropical sums), and
	// refuses any other type, and any value it cannot plan, with a
	// *PlanError naming why.
	Expression = provenance.Expression
)

// Aggregation monoids.
const (
	AggSum   = provenance.AggSum
	AggMax   = provenance.AggMax
	AggMin   = provenance.AggMin
	AggCount = provenance.AggCount
)

// Reserved mapping targets: Zero discards an annotation, One keeps its
// data unconditionally.
const (
	Zero = provenance.Zero
	One  = provenance.One
)

// NewUniverse returns an empty annotation registry.
func NewUniverse() *Universe { return provenance.NewUniverse() }

// V is a single-annotation polynomial.
func V(a Annotation) Expr { return provenance.V(a) }

// P is a product of annotations.
func P(anns ...Annotation) Expr { return provenance.P(anns...) }

// NewAgg builds and simplifies an aggregated provenance expression.
func NewAgg(kind AggKind, tensors ...Tensor) *Agg { return provenance.NewAgg(kind, tensors...) }

// NewMapping returns an identity mapping.
func NewMapping() Mapping { return provenance.NewMapping() }

// MergeMapping maps the members to the summary annotation.
func MergeMapping(to Annotation, members ...Annotation) Mapping {
	return provenance.MergeMapping(to, members...)
}

// GroupsOf inverts a cumulative mapping over the original annotations.
func GroupsOf(original []Annotation, cumulative Mapping) Groups {
	return provenance.GroupsOf(original, cumulative)
}

// CancelAnnotation is the valuation cancelling exactly a.
func CancelAnnotation(a Annotation) Valuation { return provenance.CancelAnnotation(a) }

// CancelSet is the valuation cancelling every annotation in set.
func CancelSet(label string, set ...Annotation) Valuation {
	return provenance.CancelSet(label, set...)
}

// AllTrue keeps every annotation.
var AllTrue = provenance.AllTrue

// Combiners: φ = OR cancels a summary only when all members are
// cancelled; φ = AND cancels it when any member is.
var (
	CombineOr  = provenance.CombineOr
	CombineAnd = provenance.CombineAnd
)

// ExtendValuation lifts a valuation to summary annotations (v^{h,φ}).
func ExtendValuation(v Valuation, groups Groups, phi Combiner) Valuation {
	return provenance.ExtendValuation(v, groups, phi)
}

// --- valuation classes and distances ---

// Valuation classes of Table 5.1 and the distance machinery of Sec. 3.2.
type (
	// Class is a set of valuations V_Ann.
	Class = valuation.Class
	// ValFunc measures the effect of one valuation (Sec. 3.2).
	ValFunc = distance.ValFunc
	// Estimator computes distances exactly or by sampling (Prop. 4.1.2).
	Estimator = distance.Estimator
	// PlanError is the refusal of an expression the estimator cannot
	// score.
	PlanError = distance.PlanError
)

// NewCancelSingleAnnotation builds the per-annotation cancellation class.
func NewCancelSingleAnnotation(anns []Annotation) Class {
	return valuation.NewCancelSingleAnnotation(anns)
}

// NewCancelSingleAttribute builds the per-attribute cancellation class.
func NewCancelSingleAttribute(u *Universe, anns []Annotation, attrNames ...string) Class {
	return valuation.NewCancelSingleAttribute(u, anns, attrNames...)
}

// NewAllValuations builds the full 2^n valuation space (exact DIST-COMP;
// #P-hard in general, enumerable only for small n).
func NewAllValuations(anns []Annotation) Class { return valuation.NewAll(anns) }

// NewExplicitClass wraps an explicit valuation list as a class (the
// variant where V_Ann is given as input).
func NewExplicitClass(label string, vals ...Valuation) Class {
	return &valuation.Explicit{Label: label, Vals: vals}
}

// VAL-FUNC constructors (Sec. 3.2): expected error, disagreement
// fraction, Euclidean distance over aggregation vectors, and the DDP cost
// difference.
func AbsDiff() ValFunc                   { return distance.AbsDiff(nil) }
func Disagree() ValFunc                  { return distance.Disagree(nil) }
func Euclidean() ValFunc                 { return distance.Euclidean() }
func DDPValFunc(penalty float64) ValFunc { return ddp.ValFunc(penalty) }

// Weight assigns a weighting w(v) to valuations; ValFunc constructors
// taking a Weight use it to bias the distance (Definition 3.2.2).
type Weight = distance.Weight

// WeightedAbsDiff and WeightedDisagree are the weighted variants of the
// expected-error and disagreeing-valuations VAL-FUNCs.
func WeightedAbsDiff(w Weight) ValFunc  { return distance.AbsDiff(w) }
func WeightedDisagree(w Weight) ValFunc { return distance.Disagree(w) }

// TrustWeight is the joint-probability weighting over per-annotation
// trust probabilities (annotations absent from trust default to p0).
func TrustWeight(trust map[Annotation]float64, p0 float64, anns []Annotation) Weight {
	return distance.TrustWeight(trust, p0, anns)
}

// SampleSize returns a Chebyshev-sufficient Monte-Carlo sample count for
// the (eps, delta) guarantee of Prop. 4.1.2.
func SampleSize(eps, delta, varBound float64) int {
	return distance.SampleSize(eps, delta, varBound)
}

// --- constraints and taxonomies ---

// Semantic constraints (Sec. 3.2) and taxonomy support.
type (
	// Rule is a pairwise mergeability predicate.
	Rule = constraints.Rule
	// Policy combines rules with summary-annotation naming.
	Policy = constraints.Policy
	// Taxonomy is a rooted concept tree with Wu–Palmer distances.
	Taxonomy = taxonomy.Tree
)

// Constraint rules: same input table, shared attribute, taxonomy
// common-ancestor, numeric tolerance, per-table scoping, and the
// everything-goes rule.
func SameTable() Rule                             { return constraints.SameTable() }
func SharedAttr(names ...string) Rule             { return constraints.SharedAttr(names...) }
func CommonAncestor(t *Taxonomy) Rule             { return constraints.CommonAncestor(t) }
func NumericWithin(attr string, tol float64) Rule { return constraints.NumericWithin(attr, tol) }
func TableScoped(table string, inner Rule) Rule   { return constraints.TableScoped(table, inner) }
func AnyRule() Rule                               { return constraints.Any() }
func NeverRule() Rule                             { return constraints.Never() }

// NewPolicy builds a merge policy over the universe.
func NewPolicy(u *Universe, rules ...Rule) *Policy { return constraints.NewPolicy(u, rules...) }

// NewTaxonomy creates a taxonomy rooted at root.
func NewTaxonomy(root Annotation) *Taxonomy { return taxonomy.New(root) }

// GenerateTaxonomy builds a synthetic WordNet-style concept tree.
func GenerateTaxonomy(root Annotation, branching, depth int, r *rand.Rand) *Taxonomy {
	return taxonomy.Generate(root, branching, depth, r)
}

// TaxonomyConsistent restricts a valuation class to taxonomy-consistent
// valuations (cancelling a concept cancels its subtree).
func TaxonomyConsistent(inner Class, t *Taxonomy) Class {
	return taxonomy.Consistent(inner, t)
}

// --- summarization ---

// The summarization algorithm (Algorithm 1) and its outputs.
type (
	// SummarizerConfig parameterizes Algorithm 1.
	SummarizerConfig = core.Config
	// Summarizer runs Algorithm 1.
	Summarizer = core.Summarizer
	// Summary is a summarization result with its merge trace.
	Summary = core.Summary
	// Step is one merge performed by the algorithm.
	Step = core.Step
)

// NewSummarizer validates the configuration and builds a Summarizer.
func NewSummarizer(cfg SummarizerConfig) (*Summarizer, error) { return core.New(cfg) }

// Options is the high-level configuration of Summarize: it assembles the
// policy, valuation class and estimator from simple parts.
type Options struct {
	// Universe registers the annotations (required).
	Universe *Universe
	// Rules are the semantic constraints (default: SameTable).
	Rules []Rule
	// Taxonomy enables LCA naming and taxonomy tie-breaks (optional).
	Taxonomy *Taxonomy
	// Class is the valuation class (default: cancel-single-annotation
	// over the expression's annotations).
	Class Class
	// Phi is the combiner (default OR).
	Phi Combiner
	// VF is the VAL-FUNC (default Euclidean).
	VF *ValFunc
	// MaxError normalizes distances into [0,1] (0 disables).
	MaxError float64
	// WDist and WSize weight the candidate score (default 0.5/0.5).
	WDist, WSize float64
	// TargetSize, TargetDist and MaxSteps are the stop conditions.
	TargetSize int
	TargetDist float64
	MaxSteps   int
}

// Summarize runs Algorithm 1 on p with the given high-level options.
func Summarize(p Expression, o Options) (*Summary, error) {
	rules := o.Rules
	if len(rules) == 0 {
		rules = []Rule{SameTable()}
	}
	pol := NewPolicy(o.Universe, rules...)
	if o.Taxonomy != nil {
		pol = pol.WithTaxonomy(o.Taxonomy)
	}
	class := o.Class
	if class == nil {
		class = NewCancelSingleAnnotation(p.Annotations())
	}
	phi := o.Phi
	if phi == nil {
		phi = CombineOr
	}
	vf := Euclidean()
	if o.VF != nil {
		vf = *o.VF
	}
	wd, ws := o.WDist, o.WSize
	if wd == 0 && ws == 0 {
		wd, ws = 0.5, 0.5
	}
	s, err := core.New(core.Config{
		Policy: pol,
		Estimator: &distance.Estimator{
			Class: class, Phi: phi, VF: vf, MaxError: o.MaxError,
		},
		WDist: wd, WSize: ws,
		TargetSize: o.TargetSize,
		TargetDist: o.TargetDist,
		MaxSteps:   o.MaxSteps,
	})
	if err != nil {
		return nil, err
	}
	return s.Summarize(p)
}

// --- baselines and clustering ---

// The Ch. 6 competitors.
type (
	// BaselineConfig configures the Random and Clustering baselines.
	BaselineConfig = baseline.Config
	// RandomBaseline merges random constraint-satisfying pairs.
	RandomBaseline = baseline.Random
	// ClusteringBaseline replays HAC dendrograms as summarizations.
	ClusteringBaseline = baseline.Clustering
	// ClusterMergeStep is one dendrogram merge in annotation form.
	ClusterMergeStep = baseline.MergeStep
	// Linkage selects the HAC linkage criterion.
	Linkage = cluster.Linkage
	// Dendrogram is an HAC merge history.
	Dendrogram = cluster.Dendrogram
)

// HAC linkage criteria (Sec. 6.2).
const (
	SingleLinkage          = cluster.Single
	CompleteLinkage        = cluster.Complete
	AverageLinkage         = cluster.Average
	WeightedAverageLinkage = cluster.WeightedAverage
	CentroidLinkage        = cluster.Centroid
	MedianLinkage          = cluster.Median
	WardLinkage            = cluster.Ward
)

// NewRandomBaseline builds the Random competitor.
func NewRandomBaseline(cfg BaselineConfig, r *rand.Rand) (*RandomBaseline, error) {
	return baseline.NewRandom(cfg, r)
}

// NewClusteringBaseline builds the HAC-replay competitor.
func NewClusteringBaseline(cfg BaselineConfig) (*ClusteringBaseline, error) {
	return baseline.NewClustering(cfg)
}

// HAC runs hierarchical agglomerative clustering (see internal/cluster).
func HAC(n int, dissim func(i, j int) float64, linkage Linkage, can cluster.CanMerge) (*Dendrogram, error) {
	return cluster.Run(n, dissim, linkage, can)
}

// PearsonDissimilarity is 1 − r over common keys of sparse vectors.
func PearsonDissimilarity(a, b map[string]float64) float64 {
	return cluster.PearsonDissimilarity(a, b)
}

// --- datasets, experiments, workflow, DDP, server ---

// Dataset workloads (Ch. 5) and the experiment harness (Ch. 6).
type (
	// Workload is a ready-to-summarize dataset instance.
	Workload = datasets.Workload
	// ClassKind selects a Table 5.1 valuation class.
	ClassKind = datasets.ClassKind
	// MovieLensConfig sizes the synthetic MovieLens generator.
	MovieLensConfig = datasets.MovieLensConfig
	// WikipediaConfig sizes the synthetic Wikipedia generator.
	WikipediaConfig = datasets.WikipediaConfig
	// DDPConfig sizes the DDP generator.
	DDPConfig = datasets.DDPConfig
	// ExperimentOptions selects dataset/class/averaging for experiments.
	ExperimentOptions = experiments.Options
	// ExperimentTable is a printable experiment result.
	ExperimentTable = experiments.Table
)

// Valuation class kinds.
const (
	ClassCancelSingleAnnotation = datasets.CancelSingleAnnotation
	ClassCancelSingleAttribute  = datasets.CancelSingleAttribute
)

// Dataset constructors with paper-like default configurations.
func DefaultMovieLensConfig() MovieLensConfig { return datasets.DefaultMovieLensConfig() }
func DefaultWikipediaConfig() WikipediaConfig { return datasets.DefaultWikipediaConfig() }
func DefaultDDPConfig() DDPConfig             { return datasets.DefaultDDPConfig() }

// NewMovieLensWorkload generates the synthetic MovieLens workload.
func NewMovieLensWorkload(cfg MovieLensConfig, r *rand.Rand) *Workload {
	return datasets.MovieLens(cfg, r)
}

// NewWikipediaWorkload generates the synthetic Wikipedia workload.
func NewWikipediaWorkload(cfg WikipediaConfig, r *rand.Rand) *Workload {
	return datasets.Wikipedia(cfg, r)
}

// NewDDPWorkload generates the DDP workload.
func NewDDPWorkload(cfg DDPConfig, r *rand.Rand) *Workload {
	return datasets.DDP(cfg, r)
}

// RunExperimentSuite regenerates every Ch. 6 figure for one dataset.
func RunExperimentSuite(o ExperimentOptions, quick bool) ([]*ExperimentTable, error) {
	return experiments.Suite(o, quick)
}

// The K-relation engine and workflow model (Ch. 2 substrate).
type (
	// Relation is a provenance-annotated relation.
	Relation = krel.Relation
	// WorkflowSpec is a module graph with dataflow edges.
	WorkflowSpec = workflow.Spec
	// WorkflowDB is the global persistent state of a workflow.
	WorkflowDB = workflow.DB
)

// NewRelation creates an empty K-relation.
func NewRelation(name string, cols ...string) *Relation { return krel.NewRelation(name, cols...) }

// NewWorkflowDB returns an empty workflow database.
func NewWorkflowDB() *WorkflowDB { return workflow.NewDB() }

// NewMovieWorkflow assembles the Fig. 2.1 movie-rating workflow.
func NewMovieWorkflow(kind AggKind, platforms map[string]string) (*WorkflowSpec, error) {
	return workflow.MovieWorkflow(kind, platforms)
}

// DDP provenance (Ch. 5, [17]).
type (
	// DDPExpr is a data-dependent-process provenance expression.
	DDPExpr = ddp.Expr
	// DDPExecution is a product of transitions.
	DDPExecution = ddp.Execution
	// DDPTransition is one user- or database-dependent transition.
	DDPTransition = ddp.Transition
	// DDPCostTruth is the value of a DDP expression under a valuation.
	DDPCostTruth = ddp.CostTruth
)

// NewDDPExpr builds a DDP expression with the paper's bounds.
func NewDDPExpr(execs ...DDPExecution) *DDPExpr { return ddp.NewExpr(execs...) }

// DDPUser builds a user-dependent transition ⟨cost, 1⟩.
func DDPUser(costVar Annotation, cost float64) DDPTransition { return ddp.User(costVar, cost) }

// DDPCond builds a database-dependent transition ⟨0, [d1·d2 op 0]⟩.
func DDPCond(d1, d2 Annotation, nonZero bool) DDPTransition { return ddp.Cond(d1, d2, nonZero) }

// ParseAgg reads an aggregated provenance expression in the paper's
// notation (ASCII aliases accepted), e.g.
// "U1·[S1·U1 ⊗ 5 > 2] ⊗ (3,1)@MatchPoint ⊕ U2 ⊗ (5,1)@MatchPoint".
func ParseAgg(kind AggKind, src string) (*Agg, error) { return parse.Agg(kind, src) }

// ParseDDP reads a DDP expression, e.g.
// "<c1:3,1>·<0,[d1·d2]!=0> + <0,[d2·d3]=0>·<c2:3,1>".
func ParseDDP(src string) (*DDPExpr, error) { return parse.DDP(src) }

// Persistence (JSON bundles of expressions, universes and taxonomies,
// plus summary export).
type Bundle = codec.Bundle

// SaveBundle writes a workload bundle as JSON.
func SaveBundle(w io.Writer, b *Bundle) error { return codec.Save(w, b) }

// LoadBundle reads a workload bundle written by SaveBundle.
func LoadBundle(r io.Reader) (*Bundle, error) { return codec.Load(r) }

// WriteSummaryJSON exports a summarization result as indented JSON.
func WriteSummaryJSON(w io.Writer, s *Summary) error { return codec.WriteSummary(w, s) }

// The PROX web system (Ch. 7).
type ProxServer = server.Server

// NewProxServer builds the PROX application server over a MovieLens
// workload; serve its Handler with net/http. Construction can fail when
// a persistence store is attached and its replay does not match the
// workload.
func NewProxServer(w *Workload) (*ProxServer, error) { return server.New(w) }

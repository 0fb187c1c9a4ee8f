package provenance

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Valuation is a truth valuation on annotations: the provisioning
// primitive of Sec. 2.3. Mapping an annotation to false cancels the data
// it stands for ("user U1 is a spammer"); evaluating an expression under
// the valuation recomputes the derived values without re-running the
// application.
type Valuation interface {
	// Truth reports the truth value the valuation assigns to a.
	Truth(a Annotation) bool
	// Name is a short human-readable description, e.g. "cancel U17" or
	// "cancel gender=M".
	Name() string
}

// MapValuation is a valuation backed by an explicit table; annotations
// absent from the table default to Default.
type MapValuation struct {
	Assign  map[Annotation]bool
	Default bool
	Label   string
}

// Truth implements Valuation.
func (v MapValuation) Truth(a Annotation) bool {
	if t, ok := v.Assign[a]; ok {
		return t
	}
	return v.Default
}

// Name implements Valuation.
func (v MapValuation) Name() string {
	if v.Label != "" {
		return v.Label
	}
	var falses []string
	for a, t := range v.Assign {
		if t != v.Default {
			falses = append(falses, string(a))
		}
	}
	sort.Strings(falses)
	return fmt.Sprintf("flip{%s}", strings.Join(falses, ","))
}

// CancelAnnotation returns the valuation assigning false to a and true to
// every other annotation — one element of the paper's "Cancel Single
// Annotation" class.
func CancelAnnotation(a Annotation) Valuation {
	return MapValuation{
		Assign:  map[Annotation]bool{a: false},
		Default: true,
		Label:   "cancel " + string(a),
	}
}

// CancelSet returns the valuation assigning false to every annotation in
// set and true to the rest — one element of the "Cancel Single Attribute"
// class when set collects the annotations sharing an attribute value.
func CancelSet(label string, set ...Annotation) Valuation {
	assign := make(map[Annotation]bool, len(set))
	for _, a := range set {
		assign[a] = false
	}
	return MapValuation{Assign: assign, Default: true, Label: label}
}

// AllTrue is the valuation keeping every annotation.
var AllTrue Valuation = MapValuation{Default: true, Label: "all-true"}

// ExtendValuation lifts a valuation on the original annotations to one on
// the summary annotations: the truth of a summary annotation a' is
// phi({v(a) : h(a) = a'}), per the combiner-function construction of
// Sec. 3.2 (v^{h,φ}). Summary annotations not present in groups keep
// their base truth (they are original annotations the mapping left
// alone).
func ExtendValuation(v Valuation, groups Groups, phi Combiner) Valuation {
	return extendedValuation{base: v, groups: groups, phi: phi}
}

// MaterializeValuation precomputes the extended valuation v^{h,φ} as an
// explicit truth table over the given (summary) annotations. Use it when
// the same extended valuation is evaluated many times: the lazy
// ExtendValuation wrapper recomputes the combiner on every Truth call,
// whereas a materialized valuation answers in O(1) — the form in which a
// user of the summarized provenance would actually pose the valuation.
func MaterializeValuation(v Valuation, groups Groups, phi Combiner, anns []Annotation) Valuation {
	ext := ExtendValuation(v, groups, phi)
	assign := make(map[Annotation]bool, len(anns))
	for _, a := range anns {
		assign[a] = ext.Truth(a)
	}
	return MapValuation{Assign: assign, Default: true, Label: v.Name() + "^φ!"}
}

type extendedValuation struct {
	base   Valuation
	groups Groups
	phi    Combiner
}

func (e extendedValuation) Truth(a Annotation) bool {
	members, ok := e.groups[a]
	if !ok || len(members) == 0 {
		return e.base.Truth(a)
	}
	truths := make([]bool, len(members))
	for i, m := range members {
		truths[i] = e.base.Truth(m)
	}
	return e.phi.Combine(truths)
}

func (e extendedValuation) Name() string { return e.base.Name() + "^φ" }

// Combiner is the φ function of Sec. 3.2: it determines the truth of a
// summary annotation from the truths of the annotations it summarizes.
type Combiner interface {
	Combine(truths []bool) bool
	Name() string
}

// WordCombiner is an optional fast path a Combiner can implement for the
// valuation-blocked evaluation kernel: each uint64 word holds the truths
// of one member under up to 64 valuations (bit j = valuation j), and
// CombineWords φ-combines them lane-wise. mask has the low n bits set for
// the n valuations in flight; the result must be identical, bit by bit,
// to calling Combine on each lane's bool column (including the empty
// member list). Combiners without this interface fall back to the
// per-lane bool path.
type WordCombiner interface {
	CombineWords(words []uint64, mask uint64) uint64
}

// CombineOr cancels a summary annotation only when ALL of its members are
// cancelled (φ = logical OR) — the combiner used throughout the paper's
// experiments.
var CombineOr Combiner = orCombiner{}

// CombineAnd cancels a summary annotation when ANY member is cancelled
// (φ = logical AND).
var CombineAnd Combiner = andCombiner{}

type orCombiner struct{}

func (orCombiner) Combine(ts []bool) bool {
	for _, t := range ts {
		if t {
			return true
		}
	}
	return false
}
func (orCombiner) Name() string { return "OR" }

// CombineWords implements WordCombiner: a lane is true iff some member
// lane is true; an empty member list is false everywhere, like Combine.
func (orCombiner) CombineWords(words []uint64, mask uint64) uint64 {
	var w uint64
	for _, m := range words {
		w |= m
	}
	return w & mask
}

type andCombiner struct{}

func (andCombiner) Combine(ts []bool) bool {
	for _, t := range ts {
		if !t {
			return false
		}
	}
	return true
}
func (andCombiner) Name() string { return "AND" }

// CombineWords implements WordCombiner: a lane is true iff every member
// lane is true; an empty member list is true everywhere, like Combine.
func (andCombiner) CombineWords(words []uint64, mask uint64) uint64 {
	w := mask
	for _, m := range words {
		w &= m
	}
	return w
}

// Result is the value of a provenance expression under a valuation.
// Concrete results are Scalar (a single aggregated value), Vector (one
// aggregated value per group annotation, the "vector of aggregated
// ratings" of Ex. 4.2.3), and dataset-specific results such as the DDP
// cost/truth pair.
type Result interface {
	// ResultString renders the result for display.
	ResultString() string
}

// Scalar is a single numeric result.
type Scalar float64

// ResultString implements Result.
func (s Scalar) ResultString() string { return fmt.Sprintf("%g", float64(s)) }

// Vector is a group-keyed result: one aggregated value per object.
type Vector map[Annotation]float64

// ResultString implements Result.
func (v Vector) ResultString() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%g", k, v[Annotation(k)])
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// At returns the coordinate of k, 0 when absent (absent coordinates are
// empty aggregations).
func (v Vector) At(k Annotation) float64 { return v[k] }

// Euclid returns the Euclidean distance between two vectors over the
// union of their coordinates (missing coordinates count as 0). The
// squared differences sum in sorted key order, so the result does not
// depend on map iteration order and equals the same sum over dense rows
// laid out in that order.
func Euclid(a, b Vector) float64 {
	sum := 0.0
	for _, k := range UnionKeys(a, b) {
		d := a[k] - b[k]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// UnionKeys returns the coordinates of a and b, sorted and without
// duplicates.
func UnionKeys(a, b Vector) []Annotation {
	keys := make([]Annotation, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// Expression is the abstraction the summarization algorithm operates on.
// Aggregated semiring expressions (Agg) and DDP provenance both implement
// it, which is how a single Algorithm 1 implementation serves every
// dataset in the paper.
type Expression interface {
	// Size is the provenance size: the number of annotation occurrences.
	Size() int
	// Annotations is the sorted annotation set of the expression.
	Annotations() []Annotation
	// Apply returns the expression rewritten through a mapping and
	// simplified; the receiver is unchanged.
	Apply(m Mapping) Expression
	// Eval evaluates the expression under a truth valuation.
	Eval(v Valuation) Result
	// AlignResult re-keys a result of the ORIGINAL expression into this
	// expression's result space given the cumulative mapping (vector
	// coordinate merging); identity for scalar results.
	AlignResult(orig Result, cumulative Mapping) Result
	// String renders the expression.
	String() string
}

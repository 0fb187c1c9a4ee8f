// Package constraints implements the semantic constraints of Sec. 3.2:
// predicates restricting which annotations a summarization mapping may
// group together, and the naming of the resulting summary annotations.
// The paper's constraints are: same input table, at least one shared
// attribute (out of a specified list), and a common non-root taxonomy
// ancestor; this package composes them into a merge Policy consumed by
// the summarization algorithm and by the clustering and random baselines.
package constraints

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"strconv"

	"repro/internal/provenance"
	"repro/internal/taxonomy"
)

// Rule is a single pairwise mergeability predicate over registered
// annotations.
type Rule interface {
	Allows(u *provenance.Universe, a, b provenance.Annotation) bool
	Name() string
}

// Policy decides which pairs of annotations may be mapped to the same
// summary annotation, and registers/names summary annotations when a
// merge is performed. A pair is mergeable when every rule allows it.
//
// Because the Universe registers each summary annotation with the
// intersection of its members' attributes (and taxonomy naming uses the
// members' LCA), pairwise rules extend correctly to groups: merging a
// summary annotation with a further annotation re-checks the shared
// attributes of the whole group, which is the paper's requirement that
// *all* annotations grouped together satisfy the constraint.
type Policy struct {
	Universe *provenance.Universe
	Rules    []Rule
	// Tax, when set, names merges of taxonomy concepts by their LCA and is
	// used by the CommonAncestor rule.
	Tax *taxonomy.Tree
}

// NewPolicy builds a policy over the universe with the given rules.
func NewPolicy(u *provenance.Universe, rules ...Rule) *Policy {
	return &Policy{Universe: u, Rules: rules}
}

// WithTaxonomy attaches a taxonomy used for LCA naming (and required by
// the CommonAncestor rule).
func (p *Policy) WithTaxonomy(t *taxonomy.Tree) *Policy {
	p.Tax = t
	return p
}

// CanMerge reports whether annotations a and b may be mapped to the same
// summary annotation.
func (p *Policy) CanMerge(a, b provenance.Annotation) bool {
	if a == b {
		return false
	}
	for _, r := range p.Rules {
		if !r.Allows(p.Universe, a, b) {
			return false
		}
	}
	return true
}

// MergeName registers the summary annotation replacing members and
// returns its name. Taxonomy concepts are named by their LCA; other
// annotations by their lexicographically-first shared attribute (falling
// back to a deterministic set name).
func (p *Policy) MergeName(members []provenance.Annotation) provenance.Annotation {
	if p.Tax != nil && p.allInTaxonomy(members) {
		lca := members[0]
		for _, m := range members[1:] {
			l, ok := p.Tax.LCA(lca, m)
			if !ok {
				lca = ""
				break
			}
			lca = l
		}
		if lca != "" {
			// Register the LCA as the summary annotation, carrying the
			// members' shared attributes.
			p.Universe.AddMerged(lca, members)
			return lca
		}
	}
	return p.Universe.Merge(members, provenance.FreshName(members))
}

// Fingerprint digests the identity of the constraint set, for use in
// summary cache keys: the rule names in order (rule names embed their
// parameters — e.g. "numeric-within:cost" — so distinct configurations
// digest differently) and, when a taxonomy is attached, its full
// structure (every concept with its parent, in sorted order). The
// universe itself is excluded: expression-relevant annotation metadata
// is fingerprinted separately per request via UniverseFingerprint, and
// the universe mutates as summaries register new annotations.
func (p *Policy) Fingerprint() [32]byte {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeStr("constraints.Policy/v1")
	for _, r := range p.Rules {
		writeStr(r.Name())
	}
	if p.Tax != nil {
		writeStr("taxonomy")
		writeStr(string(p.Tax.Root()))
		for _, c := range p.Tax.Concepts() {
			parent, _ := p.Tax.Parent(c)
			writeStr(string(c))
			writeStr(string(parent))
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func (p *Policy) allInTaxonomy(members []provenance.Annotation) bool {
	for _, m := range members {
		if !p.Tax.Contains(m) {
			return false
		}
	}
	return len(members) > 0
}

// --- rules ---

// SameTable allows merging only annotations registered in the same
// table — the paper's "annotate tuples in the same input table"
// constraint. Unregistered annotations are never mergeable.
func SameTable() Rule { return sameTable{} }

type sameTable struct{}

func (sameTable) Allows(u *provenance.Universe, a, b provenance.Annotation) bool {
	return u.Known(a) && u.Known(b) && u.Table(a) == u.Table(b)
}
func (sameTable) Name() string { return "same-table" }

// SharedAttr allows merging annotations that agree on at least one of the
// given attribute names ("users that are grouped together must share a
// common attribute out of gender, age group, etc."). With no names, any
// common attribute counts.
func SharedAttr(names ...string) Rule { return sharedAttr{names: names} }

type sharedAttr struct{ names []string }

func (r sharedAttr) Allows(u *provenance.Universe, a, b provenance.Annotation) bool {
	aa, ba := u.AttrsOf(a), u.AttrsOf(b)
	if len(aa) == 0 || len(ba) == 0 {
		return false
	}
	if len(r.names) == 0 {
		for k, v := range aa {
			if ba[k] == v && v != "" {
				return true
			}
		}
		return false
	}
	for _, k := range r.names {
		if v, ok := aa[k]; ok && v != "" && ba[k] == v {
			return true
		}
	}
	return false
}
func (sharedAttr) Name() string { return "shared-attribute" }

// TableScoped applies inner only to annotations of the given table,
// allowing every pair outside it. Use it to combine per-table rules, e.g.
// SharedAttr on users with CommonAncestor on pages.
func TableScoped(table string, inner Rule) Rule {
	return tableScoped{table: table, inner: inner}
}

type tableScoped struct {
	table string
	inner Rule
}

func (r tableScoped) Allows(u *provenance.Universe, a, b provenance.Annotation) bool {
	if u.Table(a) != r.table || u.Table(b) != r.table {
		return true
	}
	return r.inner.Allows(u, a, b)
}
func (r tableScoped) Name() string { return r.table + ":" + r.inner.Name() }

// CommonAncestor allows merging concepts that share a non-root ancestor
// in the taxonomy; annotations outside the taxonomy are not mergeable
// under this rule.
func CommonAncestor(t *taxonomy.Tree) Rule { return commonAncestor{t: t} }

type commonAncestor struct{ t *taxonomy.Tree }

func (r commonAncestor) Allows(_ *provenance.Universe, a, b provenance.Annotation) bool {
	return r.t.HaveCommonAncestor(a, b)
}
func (commonAncestor) Name() string { return "common-ancestor" }

// NumericWithin allows merging annotations whose numeric attribute attr
// differs by at most tol — the DDP constraint "user transitions have more
// or less the same cost". Annotations missing the attribute are not
// mergeable under this rule.
func NumericWithin(attr string, tol float64) Rule {
	return numericWithin{attr: attr, tol: tol}
}

type numericWithin struct {
	attr string
	tol  float64
}

func (r numericWithin) Allows(u *provenance.Universe, a, b provenance.Annotation) bool {
	av, errA := strconv.ParseFloat(u.Attr(a, r.attr), 64)
	bv, errB := strconv.ParseFloat(u.Attr(b, r.attr), 64)
	if errA != nil || errB != nil {
		return false
	}
	return math.Abs(av-bv) <= r.tol
}
func (r numericWithin) Name() string { return "numeric-within:" + r.attr }

// Any allows every pair — useful for unconstrained baselines and tests.
func Any() Rule { return anyRule{} }

type anyRule struct{}

func (anyRule) Allows(*provenance.Universe, provenance.Annotation, provenance.Annotation) bool {
	return true
}
func (anyRule) Name() string { return "any" }

// Never rejects every pair. Scope it to a table (TableScoped) to freeze a
// domain, e.g. to keep movie annotations un-merged while users merge.
func Never() Rule { return neverRule{} }

type neverRule struct{}

func (neverRule) Allows(*provenance.Universe, provenance.Annotation, provenance.Annotation) bool {
	return false
}
func (neverRule) Name() string { return "never" }

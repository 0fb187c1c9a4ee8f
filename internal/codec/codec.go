// Package codec serializes the PROX data model — provenance expressions
// (both the aggregated semiring algebra and DDP), annotation universes,
// taxonomies, mappings and summarization results — as JSON, so workloads
// can be saved, shipped and re-loaded, and summaries exported to other
// tools. Polynomials are encoded as a tagged union mirroring the AST.
package codec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/ddp"
	"repro/internal/provenance"
	"repro/internal/taxonomy"
)

// exprJSON is the tagged-union encoding of a provenance polynomial.
// Exactly one field is set.
type exprJSON struct {
	Var   string     `json:"var,omitempty"`
	Const *int       `json:"const,omitempty"`
	Sum   []exprJSON `json:"sum,omitempty"`
	Prod  []exprJSON `json:"prod,omitempty"`
	Cmp   *cmpJSON   `json:"cmp,omitempty"`
}

type cmpJSON struct {
	Inner exprJSON `json:"inner"`
	Value float64  `json:"value"`
	Op    string   `json:"op"`
	Bound float64  `json:"bound"`
}

func encodeExpr(e provenance.Expr) (exprJSON, error) {
	switch n := e.(type) {
	case provenance.Var:
		return exprJSON{Var: string(n.Ann)}, nil
	case provenance.Const:
		v := n.N
		return exprJSON{Const: &v}, nil
	case provenance.Sum:
		terms := make([]exprJSON, len(n.Terms))
		for i, t := range n.Terms {
			enc, err := encodeExpr(t)
			if err != nil {
				return exprJSON{}, err
			}
			terms[i] = enc
		}
		return exprJSON{Sum: terms}, nil
	case provenance.Prod:
		factors := make([]exprJSON, len(n.Factors))
		for i, f := range n.Factors {
			enc, err := encodeExpr(f)
			if err != nil {
				return exprJSON{}, err
			}
			factors[i] = enc
		}
		return exprJSON{Prod: factors}, nil
	case provenance.Cmp:
		inner, err := encodeExpr(n.Inner)
		if err != nil {
			return exprJSON{}, err
		}
		return exprJSON{Cmp: &cmpJSON{
			Inner: inner, Value: n.Value, Op: n.Op.String(), Bound: n.Bound,
		}}, nil
	default:
		return exprJSON{}, fmt.Errorf("codec: unknown expression node %T", e)
	}
}

func parseOp(s string) (provenance.CmpOp, error) {
	switch s {
	case ">":
		return provenance.OpGT, nil
	case ">=":
		return provenance.OpGE, nil
	case "<":
		return provenance.OpLT, nil
	case "<=":
		return provenance.OpLE, nil
	case "=":
		return provenance.OpEQ, nil
	case "≠", "!=":
		return provenance.OpNE, nil
	}
	return 0, fmt.Errorf("codec: unknown comparison operator %q", s)
}

func decodeExpr(j exprJSON) (provenance.Expr, error) {
	set := 0
	if j.Var != "" {
		set++
	}
	if j.Const != nil {
		set++
	}
	if j.Sum != nil {
		set++
	}
	if j.Prod != nil {
		set++
	}
	if j.Cmp != nil {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("codec: expression node must set exactly one variant, got %d", set)
	}
	switch {
	case j.Var != "":
		a, err := decodeName(j.Var)
		return provenance.Var{Ann: a}, err
	case j.Const != nil:
		// The compiled arena holds constants as int32.
		if *j.Const < 0 || *j.Const > math.MaxInt32 {
			return nil, fmt.Errorf("codec: polynomial constants must be naturals below 2^31, got %d", *j.Const)
		}
		return provenance.Const{N: *j.Const}, nil
	case j.Sum != nil:
		terms := make([]provenance.Expr, len(j.Sum))
		for i, t := range j.Sum {
			dec, err := decodeExpr(t)
			if err != nil {
				return nil, err
			}
			terms[i] = dec
		}
		return provenance.Sum{Terms: terms}, nil
	case j.Prod != nil:
		factors := make([]provenance.Expr, len(j.Prod))
		for i, f := range j.Prod {
			dec, err := decodeExpr(f)
			if err != nil {
				return nil, err
			}
			factors[i] = dec
		}
		return provenance.Prod{Factors: factors}, nil
	default:
		inner, err := decodeExpr(j.Cmp.Inner)
		if err != nil {
			return nil, err
		}
		op, err := parseOp(j.Cmp.Op)
		if err != nil {
			return nil, err
		}
		return provenance.Cmp{Inner: inner, Value: j.Cmp.Value, Op: op, Bound: j.Cmp.Bound}, nil
	}
}

// decodeName returns s as an annotation, refusing the reserved ones
// (provenance.Reserved).
func decodeName(s string) (provenance.Annotation, error) {
	if a := provenance.Annotation(s); !provenance.Reserved(a) {
		return a, nil
	}
	return "", fmt.Errorf("codec: annotation %q is reserved (it begins with 0x00)", s)
}

type tensorJSON struct {
	Prov  exprJSON `json:"prov"`
	Value float64  `json:"value"`
	Count int      `json:"count"`
	Group string   `json:"group,omitempty"`
}

type aggJSON struct {
	Agg     string       `json:"agg"`
	Tensors []tensorJSON `json:"tensors"`
}

type transitionJSON struct {
	CostVar string  `json:"costVar,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	D1      string  `json:"d1,omitempty"`
	D2      string  `json:"d2,omitempty"`
	NonZero bool    `json:"nonZero,omitempty"`
}

type ddpJSON struct {
	Execs          [][]transitionJSON `json:"executions"`
	MaxCost        float64            `json:"maxCost"`
	MaxTransitions int                `json:"maxTransitions"`
}

type annotationJSON struct {
	Ann   string            `json:"ann"`
	Table string            `json:"table"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

type taxonomyJSON struct {
	Root  string      `json:"root"`
	Edges [][2]string `json:"edges"` // (concept, parent) in insertion-safe order
}

// Bundle is a persisted workload: one provenance expression (aggregated
// or DDP), its annotation universe, and an optional taxonomy.
type Bundle struct {
	// Name labels the bundle (dataset name, selection id, ...).
	Name string
	// Agg is set for aggregated semiring expressions; DDP for
	// data-dependent-process expressions. Exactly one must be non-nil.
	Agg *provenance.Agg
	DDP *ddp.Expr
	// Universe registers the expression's annotations (optional).
	Universe *provenance.Universe
	// Taxonomy is the concept tree, when the workload has one.
	Taxonomy *taxonomy.Tree
}

type bundleJSON struct {
	Version  int              `json:"version"`
	Name     string           `json:"name,omitempty"`
	Agg      *aggJSON         `json:"agg,omitempty"`
	DDP      *ddpJSON         `json:"ddp,omitempty"`
	Universe []annotationJSON `json:"universe,omitempty"`
	Taxonomy *taxonomyJSON    `json:"taxonomy,omitempty"`
}

// version is the bundle format version.
const version = 1

// encodeAgg converts an aggregated expression to its JSON shape; it is
// shared by bundle saving and the WAL session records.
func encodeAgg(a *provenance.Agg) (*aggJSON, error) {
	enc := &aggJSON{Agg: a.Agg.Kind.String()}
	for _, t := range a.Tensors {
		p, err := encodeExpr(t.Prov)
		if err != nil {
			return nil, err
		}
		enc.Tensors = append(enc.Tensors, tensorJSON{
			Prov: p, Value: t.Value, Count: t.Count, Group: string(t.Group),
		})
	}
	return enc, nil
}

// decodeAgg is the inverse of encodeAgg.
func decodeAgg(j *aggJSON) (*provenance.Agg, error) {
	kind, err := provenance.ParseAggKind(j.Agg)
	if err != nil {
		return nil, err
	}
	tensors := make([]provenance.Tensor, len(j.Tensors))
	for i, t := range j.Tensors {
		p, err := decodeExpr(t.Prov)
		if err != nil {
			return nil, err
		}
		group, err := decodeName(t.Group)
		if err != nil {
			return nil, err
		}
		tensors[i] = provenance.Tensor{Prov: p, Value: t.Value, Count: t.Count, Group: group}
	}
	g := provenance.NewAgg(kind, tensors...)
	// Simplify folds constants (2·3 into 6); the compiled arena the
	// scorer runs on holds int32 ones.
	if provenance.CompileArena(g) == nil {
		return nil, fmt.Errorf("codec: a polynomial folds to a constant outside int32")
	}
	return g, nil
}

// Save writes the bundle as JSON.
func Save(w io.Writer, b *Bundle) error {
	if (b.Agg == nil) == (b.DDP == nil) {
		return fmt.Errorf("codec: bundle must carry exactly one of Agg and DDP")
	}
	out := bundleJSON{Version: version, Name: b.Name}
	if b.Agg != nil {
		enc, err := encodeAgg(b.Agg)
		if err != nil {
			return err
		}
		out.Agg = enc
	}
	if b.DDP != nil {
		enc := &ddpJSON{MaxCost: b.DDP.MaxCost, MaxTransitions: b.DDP.MaxTransitions}
		for _, ex := range b.DDP.Execs {
			row := make([]transitionJSON, len(ex))
			for i, t := range ex {
				row[i] = transitionJSON{
					CostVar: string(t.CostVar), Cost: t.Cost,
					D1: string(t.D1), D2: string(t.D2), NonZero: t.NonZero,
				}
			}
			enc.Execs = append(enc.Execs, row)
		}
		out.DDP = enc
	}
	if b.Universe != nil {
		for _, a := range b.Universe.Annotations() {
			out.Universe = append(out.Universe, annotationJSON{
				Ann:   string(a),
				Table: b.Universe.Table(a),
				Attrs: b.Universe.AttrsOf(a),
			})
		}
	}
	if b.Taxonomy != nil {
		tj := &taxonomyJSON{Root: string(b.Taxonomy.Root())}
		// breadth-first from the root gives a parent-before-child order
		queue := []provenance.Annotation{b.Taxonomy.Root()}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			children := b.Taxonomy.Children(c)
			sort.Slice(children, func(i, j int) bool { return children[i] < children[j] })
			for _, ch := range children {
				tj.Edges = append(tj.Edges, [2]string{string(ch), string(c)})
				queue = append(queue, ch)
			}
		}
		out.Taxonomy = tj
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load reads a bundle written by Save.
func Load(r io.Reader) (*Bundle, error) {
	var in bundleJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	if in.Version != version {
		return nil, fmt.Errorf("codec: unsupported bundle version %d", in.Version)
	}
	if (in.Agg == nil) == (in.DDP == nil) {
		return nil, fmt.Errorf("codec: bundle must carry exactly one of agg and ddp")
	}
	b := &Bundle{Name: in.Name}
	if in.Agg != nil {
		agg, err := decodeAgg(in.Agg)
		if err != nil {
			return nil, err
		}
		b.Agg = agg
	}
	if in.DDP != nil {
		execs := make([]ddp.Execution, len(in.DDP.Execs))
		for i, row := range in.DDP.Execs {
			ex := make(ddp.Execution, len(row))
			for j, t := range row {
				tr, err := decodeTransition(t)
				if err != nil {
					return nil, err
				}
				ex[j] = tr
			}
			execs[i] = ex
		}
		e := ddp.NewExpr(execs...)
		if in.DDP.MaxCost > 0 {
			e.MaxCost = in.DDP.MaxCost
		}
		if in.DDP.MaxTransitions > 0 {
			e.MaxTransitions = in.DDP.MaxTransitions
		}
		b.DDP = e
	}
	if in.Universe != nil {
		u := provenance.NewUniverse()
		for _, a := range in.Universe {
			u.Add(provenance.Annotation(a.Ann), a.Table, provenance.Attrs(a.Attrs))
		}
		b.Universe = u
	}
	if in.Taxonomy != nil {
		t := taxonomy.New(provenance.Annotation(in.Taxonomy.Root))
		for _, e := range in.Taxonomy.Edges {
			if err := t.Add(provenance.Annotation(e[0]), provenance.Annotation(e[1])); err != nil {
				return nil, fmt.Errorf("codec: taxonomy: %w", err)
			}
		}
		b.Taxonomy = t
	}
	return b, nil
}

// decodeTransition checks one DDP transition: names not reserved, and a
// user transition's cost finite and non-negative.
func decodeTransition(t transitionJSON) (ddp.Transition, error) {
	var names [3]provenance.Annotation
	for i, s := range []string{t.CostVar, t.D1, t.D2} {
		a, err := decodeName(s)
		if err != nil {
			return ddp.Transition{}, err
		}
		names[i] = a
	}
	tr := ddp.Transition{CostVar: names[0], Cost: t.Cost, D1: names[1], D2: names[2], NonZero: t.NonZero}
	if tr.IsUser() && !ddp.ValidCost(tr.Cost) {
		return ddp.Transition{}, fmt.Errorf("codec: DDP cost %v of %q is negative or not finite", tr.Cost, tr.CostVar)
	}
	return tr, nil
}

// summaryJSON is the export shape of a summarization result.
type summaryJSON struct {
	Size       int                 `json:"size"`
	Dist       float64             `json:"dist"`
	StopReason string              `json:"stopReason"`
	Expression string              `json:"expression"`
	Steps      []stepJSON          `json:"steps"`
	Groups     map[string][]string `json:"groups"`
}

type stepJSON struct {
	Members []string `json:"members"`
	New     string   `json:"new"`
	Dist    float64  `json:"dist"`
	Size    int      `json:"size"`
	Score   float64  `json:"score"`
}

// WriteSummary exports a summarization result (trace, groups, final
// expression) as indented JSON for external tooling.
func WriteSummary(w io.Writer, s *core.Summary) error {
	out := summaryJSON{
		Size:       s.Expr.Size(),
		Dist:       s.Dist,
		StopReason: s.StopReason,
		Expression: s.Expr.String(),
		Groups:     map[string][]string{},
	}
	for _, st := range s.Steps {
		members := make([]string, len(st.Members))
		for i, m := range st.Members {
			members[i] = string(m)
		}
		out.Steps = append(out.Steps, stepJSON{
			Members: members, New: string(st.New),
			Dist: st.Dist, Size: st.Size, Score: st.Score,
		})
	}
	for name, members := range s.Groups {
		if len(members) < 2 {
			continue
		}
		ms := make([]string, len(members))
		for i, m := range members {
			ms[i] = string(m)
		}
		out.Groups[string(name)] = ms
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadSummaryGroups reads the non-singleton partition out of a summary
// exported by WriteSummary — the prior a later core.Summarizer.Extend
// run warm-starts from. Each group's members come back sorted, matching
// the canonical seed-trace ordering.
func ReadSummaryGroups(r io.Reader) (provenance.Groups, error) {
	var in summaryJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("codec: reading summary: %w", err)
	}
	groups := make(provenance.Groups, len(in.Groups))
	for name, members := range in.Groups {
		if len(members) < 2 {
			return nil, fmt.Errorf("codec: summary group %q has %d members, need at least 2", name, len(members))
		}
		ms := make([]provenance.Annotation, len(members))
		for i, m := range members {
			ms[i] = provenance.Annotation(m)
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		groups[provenance.Annotation(name)] = ms
	}
	return groups, nil
}

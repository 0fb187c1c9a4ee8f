// Package ddp implements the Data-Dependent Process provenance of
// Deutch et al. [17], the third dataset of Ch. 5/6: provenance
// expressions summarizing the executions of an application whose control
// flow is guided by a finite state machine and by the state of an
// underlying database.
//
// A DDP provenance expression is a sum of executions; an execution is a
// product of transitions; a transition is either user-dependent —
// ⟨c_k, 1⟩, where c_k is the cost (user effort) of the transition — or
// database-dependent — ⟨0, [d_i·d_j] ≠ 0⟩ or ⟨0, [d_i·d_j] = 0⟩, an
// abstract condition over database tuple variables. The aggregation is
// over the tropical semiring (N^∞, min, +, ∞, 0) on costs paired with the
// boolean semiring on conditions: the value of the expression under a
// valuation is ⟨C, true⟩ where C is the least total effort of a satisfied
// execution, or ⟨·, false⟩ when no execution's condition holds.
//
// The type implements provenance.Expression, so Algorithm 1 summarizes
// DDP provenance unchanged: mappings rename cost variables to new cost
// variables and database variables to new database variables, and the
// tropical congruences merge executions that become identical.
package ddp

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/provenance"
)

// Transition is one step of an execution.
type Transition struct {
	// User-dependent transitions: CostVar names the cost variable and
	// Cost its value (the user's effort). DB fields are unused.
	CostVar provenance.Annotation
	Cost    float64

	// Database-dependent transitions: the condition [D1·D2 op 0] with op
	// "≠ 0" when NonZero is true and "= 0" otherwise. Cost fields unused.
	D1, D2  provenance.Annotation
	NonZero bool
}

// IsUser reports whether t is a user-dependent transition.
func (t Transition) IsUser() bool { return t.CostVar != "" }

// User builds a user-dependent transition ⟨cost, 1⟩.
func User(costVar provenance.Annotation, cost float64) Transition {
	return Transition{CostVar: costVar, Cost: cost}
}

// Cond builds a database-dependent transition ⟨0, [d1·d2 ≠ 0]⟩ (nonZero
// true) or ⟨0, [d1·d2 = 0]⟩.
func Cond(d1, d2 provenance.Annotation, nonZero bool) Transition {
	return Transition{D1: d1, D2: d2, NonZero: nonZero}
}

func (t Transition) String() string {
	if t.IsUser() {
		return fmt.Sprintf("⟨%s:%g,1⟩", t.CostVar, t.Cost)
	}
	op := "="
	if t.NonZero {
		op = "≠"
	}
	return fmt.Sprintf("⟨0,[%s·%s]%s0⟩", t.D1, t.D2, op)
}

// appendKey appends t's canonical form for congruence detection. DB
// variables within a condition commute. Costs render in strconv's
// shortest 'g' form, byte-identical to fmt's %g (appendCost).
func (t Transition) appendKey(b []byte) []byte {
	if t.IsUser() {
		b = append(b, "u:"...)
		b = append(b, t.CostVar...)
		b = append(b, ':')
		return appendCost(b, t.Cost)
	}
	a, c := t.D1, t.D2
	if a > c {
		a, c = c, a
	}
	b = append(b, "d:"...)
	b = append(b, a...)
	b = append(b, ':')
	b = append(b, c...)
	b = append(b, ':')
	return strconv.AppendBool(b, t.NonZero)
}

// sameCondition reports whether t and u are the same condition: both
// conditions, with the same operator over the same two variables in
// either order.
func (t Transition) sameCondition(u Transition) bool {
	return !t.IsUser() && !u.IsUser() && u.NonZero == t.NonZero &&
		(u.D1 == t.D1 && u.D2 == t.D2 || u.D1 == t.D2 && u.D2 == t.D1)
}

// Execution is a product of transitions (one run of the DDP).
type Execution []Transition

func (e Execution) String() string {
	parts := make([]string, len(e))
	for i, t := range e {
		parts[i] = t.String()
	}
	return strings.Join(parts, "·")
}

// appendCost appends c in strconv's shortest 'g' form. An integer in
// [0, 1e6) without the sign bit renders as its plain digits in that
// form, since the form switches to an exponent only from 1e6 on, so
// AppendInt writes the same bytes without the float formatting; any
// other cost goes through AppendFloat.
func appendCost(b []byte, c float64) []byte {
	if c >= 0 && c < 1e6 && c == math.Trunc(c) && !math.Signbit(c) {
		return strconv.AppendInt(b, int64(c), 10)
	}
	return strconv.AppendFloat(b, c, 'g', -1, 64)
}

// canonical applies the in-execution congruence and returns the
// execution's canonical key. Duplicate condition transitions are
// idempotent (AND): only the first occurrence stays in slim, which is e
// itself when no condition repeats and a fresh slice in transition
// order otherwise. Duplicate user transitions accumulate cost and are
// kept. The key is the sorted transition keys joined by "*"
// (transitions commute), so congruent executions share it; names
// holding ':' or '*' can make distinct executions share it too, which
// Simplify tells apart by exactKey.
func (e Execution) canonical() (slim Execution, key string) {
	// All transition keys render into one buffer; spans index them.
	// Executions hold a handful of transitions, so both live on the
	// stack and the key string is the only allocation unless a
	// condition repeats.
	var bufArr [256]byte
	var spanArr [16][2]int
	buf, spans := bufArr[:0], spanArr[:0]
	slim = e
	if e == nil {
		slim = Execution{}
	}
	copied := false
	for i, t := range e {
		// A condition equal to an earlier one is a repeat of the first
		// occurrence. For a handful of transitions the scan beats
		// hashing.
		if !t.IsUser() && slices.ContainsFunc(e[:i], t.sameCondition) {
			if !copied {
				slim = append(make(Execution, 0, len(e)-1), e[:i]...)
				copied = true
			}
			continue
		}
		start := len(buf)
		buf = t.appendKey(buf)
		spans = append(spans, [2]int{start, len(buf)})
		if copied {
			slim = append(slim, t)
		}
	}
	return slim, joinSorted(buf, spans)
}

// joinSorted returns the transition keys buf[span[0]:span[1]] of spans
// sorted and joined by "*": an execution's canonical key. It reorders
// spans.
func joinSorted(buf []byte, spans [][2]int) string {
	key := func(i int) []byte { return buf[spans[i][0]:spans[i][1]] }
	slices.SortFunc(spans, func(a, b [2]int) int {
		return bytes.Compare(buf[a[0]:a[1]], buf[b[0]:b[1]])
	})
	var outArr [256]byte
	out := outArr[:0]
	for i := range spans {
		if i > 0 {
			out = append(out, '*')
		}
		out = append(out, key(i)...)
	}
	return string(out)
}

// exactKey renders a canonical execution injectively — each transition
// with its names length-prefixed and its cost as bits, sorted — so two
// executions share it exactly when they are congruent. A field its kind
// does not read (a condition's cost, a user transition's operator)
// renders as its zero value, as Eval and the block plan ignore it.
func (e Execution) exactKey() string {
	keys := make([]string, len(e))
	for i, t := range e {
		kind, a, b := "d", min(t.D1, t.D2), max(t.D1, t.D2)
		cost, nonZero := 0.0, t.NonZero
		if t.IsUser() {
			kind, a, b = "u", t.CostVar, ""
			cost, nonZero = t.Cost, false
		}
		keys[i] = fmt.Sprintf("%s%d:%s%d:%s%x:%t", kind, len(a), a, len(b), b, math.Float64bits(cost), nonZero)
	}
	sort.Strings(keys)
	return strings.Join(keys, "*")
}

// CostTruth is the value of a DDP expression under a valuation: the least
// user effort of a satisfied execution, and whether any execution is
// satisfied.
type CostTruth struct {
	Cost  float64
	Truth bool
}

// ResultString implements provenance.Result.
func (c CostTruth) ResultString() string { return fmt.Sprintf("⟨%g,%v⟩", c.Cost, c.Truth) }

// Expr is a DDP provenance expression: a sum of executions. It implements
// provenance.Expression. MaxCost and MaxTransitions bound the dataset
// (cost ≤ MaxCost per transition, ≤ MaxTransitions transitions per
// execution) and determine the disagreement penalty of the VAL-FUNC.
//
// An expression's executions, and its Execs slice, are immutable once
// it holds them: Simplify keeps an execution it finds canonical as it
// is, and the expression a Plan's merge patch builds shares the
// executions the merge does not touch with the expression it patched.
type Expr struct {
	Execs          []Execution
	MaxCost        float64
	MaxTransitions int
}

// DefaultMaxCost and DefaultMaxTransitions are the paper's dataset
// parameters ("the maximum cost per single transition (10) multiplied by
// the number of transitions per execution (5)").
const (
	DefaultMaxCost        = 10
	DefaultMaxTransitions = 5
)

// NewExpr builds a DDP expression with the paper's bounds and simplifies
// it.
func NewExpr(execs ...Execution) *Expr {
	e := &Expr{Execs: execs, MaxCost: DefaultMaxCost, MaxTransitions: DefaultMaxTransitions}
	return e.Simplify()
}

// Penalty is the VAL-FUNC value when the original and summary disagree on
// satisfiability: the maximal possible cost difference.
func (e *Expr) Penalty() float64 { return e.MaxCost * float64(e.MaxTransitions) }

// Simplify applies the tropical congruences: duplicate condition
// transitions inside an execution collapse (AND-idempotence) and
// congruent executions merge (min-idempotence), the first in order
// surviving. Executions sort by canonical key, and executions whose
// keys collide by exactKey, which is rendered only then. The receiver
// is unchanged.
func (e *Expr) Simplify() *Expr {
	out := &Expr{MaxCost: e.MaxCost, MaxTransitions: e.MaxTransitions}
	type keyed struct {
		key string
		ex  Execution
	}
	kept := make([]keyed, 0, len(e.Execs))
	seen := make(map[string]int, len(e.Execs)) // key → first kept execution with it
	var exact map[string]bool                  // exact keys of kept executions whose key collided
	for _, ex := range e.Execs {
		slim, k := ex.canonical()
		if first, hit := seen[k]; hit {
			if exact == nil {
				exact = make(map[string]bool)
			}
			exact[kept[first].ex.exactKey()] = true
			x := slim.exactKey()
			if exact[x] {
				continue
			}
			exact[x] = true
		} else {
			seen[k] = len(kept)
		}
		kept = append(kept, keyed{key: k, ex: slim})
	}
	// Kept executions are pairwise not congruent, so the order is total
	// and the unstable sort deterministic.
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].key != kept[j].key {
			return kept[i].key < kept[j].key
		}
		return kept[i].ex.exactKey() < kept[j].ex.exactKey()
	})
	if len(kept) > 0 {
		out.Execs = make([]Execution, len(kept))
		for i, k := range kept {
			out.Execs[i] = k.ex
		}
	}
	return out
}

// Size implements provenance.Expression: the number of variable
// occurrences (1 per user transition, 2 per condition transition).
func (e *Expr) Size() int {
	n := 0
	for _, ex := range e.Execs {
		for _, t := range ex {
			if t.IsUser() {
				n++
			} else {
				n += 2
			}
		}
	}
	return n
}

// Annotations implements provenance.Expression.
func (e *Expr) Annotations() []provenance.Annotation {
	set := make(map[provenance.Annotation]struct{})
	for _, ex := range e.Execs {
		for _, t := range ex {
			if t.IsUser() {
				set[t.CostVar] = struct{}{}
			} else {
				set[t.D1] = struct{}{}
				set[t.D2] = struct{}{}
			}
		}
	}
	out := make([]provenance.Annotation, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Apply implements provenance.Expression: rename cost and database
// variables through the mapping and re-apply the congruences. Renaming a
// variable to provenance.Zero cancels it (a condition over a Zero
// variable can never be non-zero; a Zero cost variable contributes no
// cost); renaming to provenance.One fixes it as present.
func (e *Expr) Apply(m provenance.Mapping) provenance.Expression {
	exprApplies.Add(1)
	out := &Expr{MaxCost: e.MaxCost, MaxTransitions: e.MaxTransitions}
	for _, ex := range e.Execs {
		nex := make(Execution, len(ex))
		for i, t := range ex {
			if t.IsUser() {
				t.CostVar = m.Rename(t.CostVar)
			} else {
				t.D1 = m.Rename(t.D1)
				t.D2 = m.Rename(t.D2)
			}
			nex[i] = t
		}
		out.Execs = append(out.Execs, nex)
	}
	return out.Simplify()
}

// truthOf interprets the reserved constants for a valuation.
func truthOf(v provenance.Valuation, a provenance.Annotation) bool {
	switch a {
	case provenance.Zero:
		return false
	case provenance.One:
		return true
	default:
		return v.Truth(a)
	}
}

// Eval implements provenance.Expression. A valuation assigns booleans to
// database variables and 0/1 multipliers to cost variables (false = the
// cost is cancelled). The value is the minimal total cost among satisfied
// executions.
func (e *Expr) Eval(v provenance.Valuation) provenance.Result {
	best := CostTruth{Cost: 0, Truth: false}
	for _, ex := range e.Execs {
		cost := 0.0
		ok := true
		for _, t := range ex {
			if t.IsUser() {
				if truthOf(v, t.CostVar) {
					cost += t.Cost
				}
				continue
			}
			holds := truthOf(v, t.D1) && truthOf(v, t.D2)
			if !t.NonZero {
				holds = !holds
			}
			if !holds {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if !best.Truth || cost < best.Cost {
			best = CostTruth{Cost: cost, Truth: true}
		}
	}
	return best
}

// AlignResult implements provenance.Expression; DDP results are scalar
// cost/truth pairs, so no re-keying is needed.
func (e *Expr) AlignResult(orig provenance.Result, _ provenance.Mapping) provenance.Result {
	return orig
}

// String implements provenance.Expression.
func (e *Expr) String() string {
	if len(e.Execs) == 0 {
		return "0"
	}
	parts := make([]string, len(e.Execs))
	for i, ex := range e.Execs {
		parts[i] = ex.String()
	}
	return strings.Join(parts, " + ")
}

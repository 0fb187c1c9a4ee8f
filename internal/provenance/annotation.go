// Package provenance implements the semiring provenance model that PROX
// summarizes: polynomials over a set of abstract annotations (the
// provenance semiring N[Ann] of Green et al.), extended with aggregation
// tensors and formal sums following Amsterdamer et al., and with
// comparison guards used for nested aggregates and conditionals.
//
// The package also defines the small set of vocabulary types shared by
// every other package in the repository: Annotation, Attrs and Universe
// (annotation metadata that drives semantic constraints), Mapping and
// Groups (summarization homomorphisms), Valuation and Result (truth
// valuations and evaluation results), and the Expression interface that
// the summarization algorithm is generic over.
package provenance

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Annotation is a basic provenance token: an abstract variable
// identifying one unit of data manipulated by the application (a user, a
// tuple, a movie, a database fact, ...). Summarization maps annotations
// to coarser summary annotations.
type Annotation string

// Reserved annotations that a Mapping may use as targets. Mapping an
// annotation to One keeps the data unconditionally (the annotation is
// replaced by the semiring 1); mapping to Zero discards it. They are
// chosen so that they cannot collide with dataset annotations.
const (
	Zero Annotation = "\x000"
	One  Annotation = "\x001"
)

// Reserved reports whether a begins with the byte 0x00, the prefix of
// Zero, One and the summarizer's scratch annotations: input readers
// refuse such names.
func Reserved(a Annotation) bool { return strings.HasPrefix(string(a), "\x00") }

// Attrs holds the semantic attributes of the object an annotation stands
// for, e.g. {"gender": "F", "age": "25-34"} for a MovieLens user. The
// attribute names and values are dataset-specific; constraints and
// valuation classes interpret them.
type Attrs map[string]string

// clone returns a copy of the attribute map.
func (a Attrs) clone() Attrs {
	c := make(Attrs, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Shared returns the attributes on which every map in attrs agrees (the
// intersection). It is the attribute set of a summary annotation: a group
// of users merged into "Female" shares exactly {"gender": "F"}.
func Shared(attrs []Attrs) Attrs {
	if len(attrs) == 0 {
		return Attrs{}
	}
	out := attrs[0].clone()
	for _, a := range attrs[1:] {
		for k, v := range out {
			if a[k] != v {
				delete(out, k)
			}
		}
	}
	return out
}

// Universe is the registry of annotation metadata: for each annotation,
// the table (domain) it belongs to and its semantic attributes. The
// summarization algorithm consults the Universe to decide which
// annotations may be merged (same table, shared attribute, common
// taxonomy ancestor) and how to name the summary annotation.
//
// A Universe is mutated as summarization proceeds: each merge step
// registers the new summary annotation with the intersection of its
// members' attributes. All methods are safe for concurrent use: the
// server registers summary annotations from worker goroutines (running
// jobs, cache-hit trace replays) while request handlers read metadata
// and compute fingerprints.
type Universe struct {
	mu    sync.RWMutex
	attrs map[Annotation]Attrs
	table map[Annotation]string
	// suffix is Merge's next "#N" suffix to try per attribute-derived
	// name: every name#i with 2 <= i < suffix[name] is registered.
	// Entries are never removed, so the hint stays true.
	suffix map[Annotation]int
}

// NewUniverse returns an empty annotation registry.
func NewUniverse() *Universe {
	return &Universe{
		attrs:  make(map[Annotation]Attrs),
		table:  make(map[Annotation]string),
		suffix: make(map[Annotation]int),
	}
}

// Add registers annotation a as belonging to table with the given
// attributes. Re-adding an annotation overwrites its previous entry.
func (u *Universe) Add(a Annotation, table string, attrs Attrs) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.attrs[a] = attrs.clone()
	u.table[a] = table
}

// Table returns the table (domain) of a, or "" if unregistered.
func (u *Universe) Table(a Annotation) string {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.table[a]
}

// AttrsOf returns the attributes of a (nil if unregistered). The returned
// map must not be modified.
func (u *Universe) AttrsOf(a Annotation) Attrs {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.attrs[a]
}

// Attr returns a single attribute value of a, or "" if absent.
func (u *Universe) Attr(a Annotation, name string) string {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.attrs[a][name]
}

// Known reports whether a is registered.
func (u *Universe) Known(a Annotation) bool {
	u.mu.RLock()
	defer u.mu.RUnlock()
	_, ok := u.attrs[a]
	return ok
}

// Annotations returns all registered annotations in sorted order.
func (u *Universe) Annotations() []Annotation {
	u.mu.RLock()
	out := make([]Annotation, 0, len(u.attrs))
	for a := range u.attrs {
		out = append(out, a)
	}
	u.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InTable returns all registered annotations of the given table, sorted.
func (u *Universe) InTable(table string) []Annotation {
	u.mu.RLock()
	var out []Annotation
	for a, t := range u.table {
		if t == table {
			out = append(out, a)
		}
	}
	u.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge registers the summary annotation that replaces members. The new
// annotation lives in the members' table (which must be common to all)
// and carries their shared attributes. It returns the registered
// annotation name: if the members share at least one attribute, the name
// is derived from the lexicographically first shared attribute
// ("gender=F" yields "F"); otherwise name falls back to the provided
// fallback.
func (u *Universe) Merge(members []Annotation, fallback Annotation) Annotation {
	if len(members) == 0 {
		return fallback
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	table := u.table[members[0]]
	shared := u.shared(members)
	known := func(a Annotation) bool { _, ok := u.attrs[a]; return ok }
	name := fallback
	if len(shared) > 0 {
		keys := make([]string, 0, len(shared))
		for k := range shared {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		name = Annotation(keys[0] + ":" + shared[keys[0]])
		// Summary annotations from different merges may share the same
		// attribute-derived name; disambiguate by appending a suffix when a
		// registered annotation with that name exists and is not one of the
		// members being replaced.
		if known(name) && !contains(members, name) {
			name = u.disambiguate(name, members)
		}
	}
	u.attrs[name] = shared
	u.table[name] = table
	return name
}

// AddMerged registers a as the summary annotation of members, with the
// entry Merge writes under the name it picks: in the first member's
// table, carrying the attributes the registered members share.
func (u *Universe) AddMerged(a Annotation, members []Annotation) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.attrs[a] = u.shared(members)
	u.table[a] = u.table[members[0]]
}

// shared returns the attributes every registered member agrees on.
// u.mu must be held.
func (u *Universe) shared(members []Annotation) Attrs {
	attrSets := make([]Attrs, 0, len(members))
	for _, m := range members {
		if a, ok := u.attrs[m]; ok {
			attrSets = append(attrSets, a)
		}
	}
	return Shared(attrSets)
}

// disambiguate returns name#i for the smallest i >= 2 such that name#i
// is unregistered or one of members, in amortized O(1): the suffix hint
// skips the registered run below it, and a member name#k below the
// first unregistered suffix comes first. u.mu must be held for writing.
func (u *Universe) disambiguate(name Annotation, members []Annotation) Annotation {
	i := max(u.suffix[name], 2)
	for {
		if _, ok := u.attrs[suffixed(name, i)]; !ok {
			break
		}
		i++
	}
	u.suffix[name] = i
	prefix := string(name) + "#"
	for _, m := range members {
		rest, ok := strings.CutPrefix(string(m), prefix)
		if !ok {
			continue
		}
		if k, err := strconv.Atoi(rest); err == nil && k >= 2 && k < i && strconv.Itoa(k) == rest {
			i = k
		}
	}
	return suffixed(name, i)
}

// suffixed returns name#i.
func suffixed(name Annotation, i int) Annotation {
	return name + "#" + Annotation(strconv.Itoa(i))
}

func contains(list []Annotation, a Annotation) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

// FreshName builds a deterministic fallback name for a summary annotation
// from its members, e.g. "{U1+U2}".
func FreshName(members []Annotation) Annotation {
	parts := make([]string, len(members))
	for i, m := range members {
		parts[i] = string(m)
	}
	sort.Strings(parts)
	return Annotation("{" + strings.Join(parts, "+") + "}")
}

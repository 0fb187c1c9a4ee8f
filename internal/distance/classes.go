package distance

import (
	"slices"

	"repro/internal/provenance"
)

// EquivalenceClasses partitions anns into the classes of Prop. 4.2.1:
// annotations that get the same truth under every valuation of vals,
// which is to say whose packed truth columns over vals are equal. One
// hash pass over the columns groups them. Classes come in the order of
// their columns read lexicographically in valuation order, true before
// false, which is the order the proposition's partition refinement
// yields, and list their members in the order of anns. The classes
// share one backing array; each is capped at its own length.
func EquivalenceClasses(anns []provenance.Annotation, vals []provenance.Valuation) [][]provenance.Annotation {
	words := (len(vals) + 63) / 64
	slab := make([]uint64, words*len(anns))
	cols := make([][]uint64, len(anns))
	for i, a := range anns {
		cols[i] = slab[i*words : (i+1)*words : (i+1)*words]
		packColumn(cols[i], a, vals)
	}
	return classesOf(anns, cols)
}

// EquivalenceClasses is the package function over the run's class: in
// enumeration mode it reads the run's memoized truth columns
// (truthColumn), which the sweeps then reuse, and in sampling mode it
// packs columns over the full class, which the draws do not cover.
func (r *Run) EquivalenceClasses(anns []provenance.Annotation) [][]provenance.Annotation {
	if r.e.Samples > 0 {
		return EquivalenceClasses(anns, r.e.Class.Valuations())
	}
	vals := r.batchValuations()
	cols := make([][]uint64, len(anns))
	for i, a := range anns {
		cols[i] = r.truthColumn(a, vals)
	}
	return classesOf(anns, cols)
}

// classesOf groups anns[i] by its column cols[i] (see EquivalenceClasses).
func classesOf(anns []provenance.Annotation, cols [][]uint64) [][]provenance.Annotation {
	// first and chain list each class's first member, and the next class
	// whose column hashes alike; classOf maps members to classes.
	heads := make(map[uint64]int32, len(anns))
	classOf := make([]int32, len(anns))
	var first, chain, size []int32
	for i, col := range cols {
		h := hashColumn(col)
		c, ok := heads[h]
		for ok && !slices.Equal(cols[first[c]], col) {
			c = chain[c]
			ok = c >= 0
		}
		if !ok {
			c = int32(len(first))
			next, hashed := heads[h]
			if !hashed {
				next = -1
			}
			heads[h] = c
			first, chain, size = append(first, int32(i)), append(chain, next), append(size, 0)
		}
		classOf[i] = c
		size[c]++
	}
	order := make([]int32, len(first))
	for c := range order {
		order[c] = int32(c)
	}
	slices.SortFunc(order, func(a, b int32) int { return compareColumns(cols[first[a]], cols[first[b]]) })
	rank := make([]int32, len(first))
	out := make([][]provenance.Annotation, len(first))
	slab := make([]provenance.Annotation, len(anns))
	at := 0
	for k, c := range order {
		rank[c] = int32(k)
		out[k] = slab[at : at : at+int(size[c])]
		at += int(size[c])
	}
	for i, a := range anns {
		k := rank[classOf[i]]
		out[k] = append(out[k], a)
	}
	return out
}

// hashColumn mixes a packed column's words into one hash (FNV-1a over
// words, finished by a 64-bit avalanche).
func hashColumn(col []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range col {
		h = (h ^ w) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// compareColumns orders two columns of one length by their truths read
// in valuation order, true first.
func compareColumns(a, b []uint64) int {
	for w := range a {
		if x := a[w] ^ b[w]; x != 0 {
			if a[w]&(x&-x) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

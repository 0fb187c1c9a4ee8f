package distance

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// FuzzEquivalenceClasses holds the column-hash Prop. 4.2.1 classes to
// the partition-refinement oracle (refineClasses) over a decoded class:
// up to 12 annotations, some of which no valuation cancels, and up to
// 150 valuations (so columns span several words), each cancelling a
// decoded subset, so equal columns are common. The package function,
// a run in enumeration mode (the memoized columns, read twice) and a
// run in sampling mode (columns over the full class, not the draws) must
// all give the oracle's classes, in its order.
func FuzzEquivalenceClasses(f *testing.F) {
	f.Add([]byte{4, 3, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{12, 140, 7, 0, 255, 3, 9, 1, 64, 200})
	f.Add([]byte{6, 0})
	f.Add([]byte{0, 5, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		anns := make([]provenance.Annotation, int(next())%13)
		for i := range anns {
			anns[i] = provenance.Annotation(fmt.Sprintf("a%02d", i))
		}
		vals := make([]provenance.Valuation, int(next())%151)
		for j := range vals {
			// Cancel the annotations of a decoded mask over the first 8;
			// the others are never cancelled.
			mask := next()
			var cancelled []provenance.Annotation
			for i, a := range anns {
				if i < 8 && mask&(1<<i) != 0 {
					cancelled = append(cancelled, a)
				}
			}
			vals[j] = provenance.CancelSet(fmt.Sprintf("v%d", j), cancelled...)
		}
		want := refineClasses(anns, vals)
		check := func(label string, got [][]provenance.Annotation) {
			t.Helper()
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: classes %v, refinement %v", label, got, want)
			}
		}
		check("EquivalenceClasses", EquivalenceClasses(anns, vals))
		class := &valuation.Explicit{Vals: vals}
		run := estimator(class, Euclidean()).Begin(nil)
		check("enumerating run", run.EquivalenceClasses(anns))
		check("enumerating run, memoized columns", run.EquivalenceClasses(anns))
		if len(vals) > 0 {
			e := estimator(class, Euclidean())
			e.Samples, e.Rand = 3, rand.New(rand.NewSource(int64(len(data))))
			check("sampling run", e.Begin(nil).EquivalenceClasses(anns))
		}
	})
}

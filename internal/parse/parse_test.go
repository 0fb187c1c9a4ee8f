package parse

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/provenance"
)

func TestAggSimple(t *testing.T) {
	p, err := Agg(provenance.AggMax, "U1 ⊗ (3,1)@MP ⊕ U2 ⊗ (5,1)@MP")
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 || len(p.Tensors) != 2 {
		t.Fatalf("parsed = %s", p)
	}
	res := p.Eval(provenance.AllTrue).(provenance.Vector)
	if res.At("MP") != 5 {
		t.Fatalf("eval = %s", res.ResultString())
	}
}

func TestAggAsciiAliases(t *testing.T) {
	p, err := Agg(provenance.AggMax, "U1 (x) (3,1)@MP (+) U2 (x) (5,1)@MP")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tensors) != 2 {
		t.Fatalf("parsed = %s", p)
	}
	q, err := Agg(provenance.AggMax, "U1*U2 (x) 4 @MP")
	if err != nil {
		t.Fatal(err)
	}
	if q.Tensors[0].Count != 1 || q.Tensors[0].Value != 4 {
		t.Fatalf("bare-number tensor = %s", q)
	}
}

func TestAggWithGuard(t *testing.T) {
	// the Example 2.2.1 shape
	src := "U1·[S1·U1 ⊗ 5 > 2] ⊗ (3,1)@MatchPoint ⊕ U2·[S2·U2 ⊗ 1 > 2] ⊗ (5,1)@MatchPoint"
	p, err := Agg(provenance.AggMax, src)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Eval(provenance.AllTrue).(provenance.Vector)
	// U2's guard 1 > 2 is false: only U1's rating 3 survives
	if res.At("MatchPoint") != 3 {
		t.Fatalf("eval = %s", res.ResultString())
	}
}

func TestAggGuardOperators(t *testing.T) {
	for _, c := range []struct {
		op   string
		want float64
	}{
		{">", 0}, {">=", 0}, {"<", 3}, {"<=", 3}, {"=", 0}, {"!=", 3}, {"≠", 3},
	} {
		src := "U1·[S1 ⊗ 5 " + c.op + " 5] ⊗ (3,1)@M"
		p, err := Agg(provenance.AggMax, src)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		res := p.Eval(provenance.CancelAnnotation("S1")).(provenance.Vector)
		// with S1 cancelled the guard lhs is 0, so compare 0 OP 5
		if res.At("M") != c.want {
			t.Errorf("op %s: eval = %g, want %g", c.op, res.At("M"), c.want)
		}
	}
}

func TestAggSumsAndParens(t *testing.T) {
	p, err := Agg(provenance.AggSum, "(U1 + U2)·M1 ⊗ (1,1)@M1")
	if err != nil {
		t.Fatal(err)
	}
	// cancelling U1 leaves U2's alternative derivation
	res := p.Eval(provenance.CancelAnnotation("U1")).(provenance.Vector)
	if res.At("M1") != 1 {
		t.Fatalf("eval = %s", res.ResultString())
	}
	// cancelling both kills the tensor
	res = p.Eval(provenance.CancelSet("both", "U1", "U2")).(provenance.Vector)
	if res.At("M1") != 0 {
		t.Fatalf("eval = %s", res.ResultString())
	}
}

func TestAggQuotedNames(t *testing.T) {
	p, err := Agg(provenance.AggMax, `"user 1" ⊗ (3,1)@"Match Point"`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tensors[0].Group != "Match Point" {
		t.Fatalf("group = %q", p.Tensors[0].Group)
	}
	anns := p.Annotations()
	if anns[0] != "Match Point" && anns[1] != "Match Point" {
		t.Fatalf("annotations = %v", anns)
	}
}

func TestAggErrors(t *testing.T) {
	bad := []string{
		"",
		"U1",                // missing ⊗
		"U1 ⊗",              // missing value
		"U1 ⊗ (3,1)@",       // missing group
		"U1 ⊗ (3,1) junk ⊗", // trailing
		"U1 ⊗ (3,1] @M",     // mismatched
		"[U1 ⊗ 3] ⊗ (1,1)",  // guard missing op
		`"unterminated ⊗ (3,1)`,
		"U1·(3.5) ⊗ (1,1)",     // non-natural polynomial constant
		"(a + -1) ⊗ (2,1) @ g", // negative polynomial constant
		"-1 ⊗ (2,1) @ g",
		"a·2147483648 ⊗ (2,1) @ g",           // constant outside int32
		"a·99999999999999999999 ⊗ (2,1) @ g", // constant outside int64
		"a·65536·65536 ⊗ (2,1) @ g",          // folds outside int32
		"\"\x00probe\" ⊗ (2,1) @ g",          // reserved annotation
		"a ⊗ (2,1) @ \"\x000\"",              // reserved group
	}
	for _, src := range bad {
		if _, err := Agg(provenance.AggMax, src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// Guard values and bounds, and tensor values, may be negative; only
// polynomial constants must be naturals.
func TestAggNegativeValues(t *testing.T) {
	g, err := Agg(provenance.AggSum, "[U1 ⊗ -2 < -1] ⊗ (-3,1)@M")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := g.Tensors[0].Prov.(provenance.Cmp)
	if !ok || c.Value != -2 || c.Bound != -1 || g.Tensors[0].Value != -3 {
		t.Fatalf("parsed %s", g)
	}
}

// Property: parsing the String() of generated MovieLens workloads
// round-trips (String → parse → String is a fixpoint).
func TestAggStringRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		cfg := datasets.DefaultMovieLensConfig()
		cfg.Users, cfg.Movies = 6, 3
		w := datasets.MovieLens(cfg, rand.New(rand.NewSource(seed)))
		agg := w.Prov.(*provenance.Agg)
		parsed, err := Agg(agg.Agg.Kind, agg.String())
		if err != nil {
			t.Logf("parse error: %v\nsource: %s", err, agg)
			return false
		}
		return parsed.String() == agg.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDDPPaperExample(t *testing.T) {
	// Example 5.2.2, ASCII form.
	e, err := DDP("<c1:3,1>·<0,[d1·d2]!=0> + <0,[d2·d3]=0>·<c2:3,1>")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Execs) != 2 || e.Size() != 6 {
		t.Fatalf("parsed = %s", e)
	}
	res := e.Eval(provenance.AllTrue)
	if res.ResultString() != "⟨3,true⟩" {
		t.Fatalf("eval = %s", res.ResultString())
	}
}

func TestDDPUnicodeRoundTrip(t *testing.T) {
	src := "⟨c1:3,1⟩·⟨0,[d1·d2]≠0⟩ + ⟨0,[d2·d3]=0⟩·⟨c2:3,1⟩"
	e, err := DDP(src)
	if err != nil {
		t.Fatal(err)
	}
	// parse its own String output
	e2, err := DDP(e.String())
	if err != nil {
		t.Fatalf("re-parse: %v\nsource: %s", err, e)
	}
	if e2.String() != e.String() {
		t.Fatalf("round trip changed: %s vs %s", e, e2)
	}
}

func TestDDPAsciiStarProduct(t *testing.T) {
	e, err := DDP("<c1:2>*<c2:3>")
	if err != nil {
		t.Fatal(err)
	}
	res := e.Eval(provenance.AllTrue)
	if !strings.Contains(res.ResultString(), "5") {
		t.Fatalf("eval = %s", res.ResultString())
	}
}

func TestDDPErrors(t *testing.T) {
	bad := []string{
		"",
		"<c1>",               // missing cost
		"<c1:3,1",            // unterminated
		"<0,[d1·d2]>0>",      // bad op for condition
		"<0,[d1 d2]=0>",      // missing ·
		"<0,[d1·d2]=0> junk", // trailing
		"<<c1:3>>",           // double angle
		"<c1:-3,1>",          // negative cost
		"<c1:1" + strings.Repeat("0", 400) + ",1>", // infinite cost
		"<\"\x001\":3,1>",                          // reserved cost variable
		"<0,[d1·\"\x00d\"]=0>",                     // reserved database variable
	}
	for _, src := range bad {
		if _, err := DDP(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Agg(provenance.AggMax, "U1 ⊗ (3,1)@M ⊕ {"); err == nil {
		t.Fatal("bad character must fail")
	}
}

package codec

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ddp"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/taxonomy"
	"repro/internal/valuation"
)

func roundTrip(t *testing.T, b *Bundle) *Bundle {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, b); err != nil {
		t.Fatal(err)
	}
	out, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAggRoundTrip(t *testing.T) {
	p := provenance.NewAgg(provenance.AggMax,
		provenance.Tensor{
			Prov: provenance.Prod{Factors: []provenance.Expr{
				provenance.V("U1"),
				provenance.Cmp{Inner: provenance.P("S1", "U1"), Value: 5, Op: provenance.OpGT, Bound: 2},
			}},
			Value: 3, Count: 1, Group: "MP",
		},
		provenance.Tensor{Prov: provenance.V("U2"), Value: 5, Count: 2, Group: "MP"},
	)
	u := provenance.NewUniverse()
	u.Add("U1", "users", provenance.Attrs{"gender": "F"})
	u.Add("U2", "users", provenance.Attrs{"gender": "M"})
	u.Add("MP", "movies", nil)

	out := roundTrip(t, &Bundle{Name: "test", Agg: p, Universe: u})
	if out.Name != "test" {
		t.Fatalf("name = %q", out.Name)
	}
	if out.Agg == nil || out.DDP != nil {
		t.Fatal("wrong expression kind")
	}
	if out.Agg.String() != p.String() {
		t.Fatalf("expression changed:\n%s\n%s", p, out.Agg)
	}
	if out.Agg.Size() != p.Size() {
		t.Fatal("size changed")
	}
	if out.Universe.Attr("U1", "gender") != "F" || out.Universe.Table("MP") != "movies" {
		t.Fatal("universe lost data")
	}
	// evaluation must agree under a cancellation
	v := provenance.CancelAnnotation("U2")
	if p.Eval(v).ResultString() != out.Agg.Eval(v).ResultString() {
		t.Fatal("evaluation differs after round trip")
	}
}

func TestDDPRoundTrip(t *testing.T) {
	e := ddp.NewExpr(
		ddp.Execution{ddp.User("c1", 3), ddp.Cond("d1", "d2", true)},
		ddp.Execution{ddp.Cond("d2", "d3", false), ddp.User("c2", 4)},
	)
	e.MaxCost = 12
	out := roundTrip(t, &Bundle{DDP: e})
	if out.DDP == nil || out.Agg != nil {
		t.Fatal("wrong expression kind")
	}
	if out.DDP.String() != e.String() {
		t.Fatalf("expression changed:\n%s\n%s", e, out.DDP)
	}
	if out.DDP.MaxCost != 12 {
		t.Fatalf("MaxCost = %g", out.DDP.MaxCost)
	}
	v := provenance.CancelAnnotation("d1")
	if e.Eval(v).ResultString() != out.DDP.Eval(v).ResultString() {
		t.Fatal("evaluation differs")
	}
}

func TestTaxonomyRoundTrip(t *testing.T) {
	tax := taxonomy.New("root")
	tax.MustAdd("music", "root")
	tax.MustAdd("singer", "music")
	tax.MustAdd("guitarist", "music")
	tax.MustAdd("Adele", "singer")
	p := provenance.NewAgg(provenance.AggSum,
		provenance.Tensor{Prov: provenance.V("u"), Value: 1, Count: 1, Group: "Adele"})
	out := roundTrip(t, &Bundle{Agg: p, Taxonomy: tax})
	if out.Taxonomy == nil {
		t.Fatal("taxonomy missing")
	}
	if out.Taxonomy.Depth("Adele") != 3 {
		t.Fatalf("depth = %d", out.Taxonomy.Depth("Adele"))
	}
	if got := out.Taxonomy.WuPalmer("singer", "guitarist"); got != tax.WuPalmer("singer", "guitarist") {
		t.Fatalf("wu-palmer changed: %g", got)
	}
}

func TestBundleValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, &Bundle{}); err == nil {
		t.Fatal("empty bundle must fail")
	}
	both := &Bundle{
		Agg: provenance.NewAgg(provenance.AggSum),
		DDP: ddp.NewExpr(),
	}
	if err := Save(&buf, both); err == nil {
		t.Fatal("double bundle must fail")
	}
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Fatal("bad json must fail")
	}
	if _, err := Load(strings.NewReader(`{"version": 99, "agg": {"agg":"MAX"}}`)); err == nil {
		t.Fatal("bad version must fail")
	}
	if _, err := Load(strings.NewReader(`{"version": 1}`)); err == nil {
		t.Fatal("kindless bundle must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"agg":{"agg":"BOGUS"}}`)); err == nil {
		t.Fatal("unknown aggregation must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"agg":{"agg":"MAX","tensors":[{"prov":{},"value":1,"count":1}]}}`)); err == nil {
		t.Fatal("empty expression node must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"agg":{"agg":"MAX","tensors":[{"prov":{"cmp":{"inner":{"var":"x"},"op":"??"}},"value":1,"count":1}]}}`)); err == nil {
		t.Fatal("unknown operator must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"agg":{"agg":"SUM","tensors":[{"prov":{"sum":[{"var":"a"},{"const":-1}]},"value":2,"count":1,"group":"g"}]}}`)); err == nil {
		t.Fatal("negative polynomial constant must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"agg":{"agg":"SUM","tensors":[{"prov":{"prod":[{"var":"a"},{"const":2147483648}]},"value":2,"count":1,"group":"g"}]}}`)); err == nil {
		t.Fatal("polynomial constant outside int32 must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"agg":{"agg":"SUM","tensors":[{"prov":{"prod":[{"var":"a"},{"const":65536},{"const":65536}]},"value":2,"count":1,"group":"g"}]}}`)); err == nil {
		t.Fatal("polynomial folding to a constant outside int32 must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"agg":{"agg":"SUM","tensors":[{"prov":{"var":"\u0000probe"},"value":2,"count":1,"group":"g"}]}}`)); err == nil {
		t.Fatal("reserved annotation must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"agg":{"agg":"SUM","tensors":[{"prov":{"var":"a"},"value":2,"count":1,"group":"\u00000"}]}}`)); err == nil {
		t.Fatal("reserved group must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"ddp":{"executions":[[{"costVar":"c1","cost":-1}]]}}`)); err == nil {
		t.Fatal("negative DDP cost must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"ddp":{"executions":[[{"d1":"d","d2":"\u00001","nonZero":true}]]}}`)); err == nil {
		t.Fatal("reserved DDP variable must fail")
	}
	if _, err := Load(strings.NewReader(`{"version":1,"agg":{"agg":"SUM","tensors":[{"prov":{"cmp":{"inner":{"var":"a"},"value":-2,"op":"<","bound":-1}},"value":-3,"count":1,"group":"g"}]}}`)); err != nil {
		t.Fatalf("negative guard values and tensor values must load: %v", err)
	}
}

func TestOpsRoundTrip(t *testing.T) {
	ops := []provenance.CmpOp{
		provenance.OpGT, provenance.OpGE, provenance.OpLT,
		provenance.OpLE, provenance.OpEQ, provenance.OpNE,
	}
	for _, op := range ops {
		got, err := parseOp(op.String())
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if got != op {
			t.Fatalf("op %s round-tripped to %s", op, got)
		}
	}
	if _, err := parseOp("!="); err != nil {
		t.Fatal("!= alias must parse")
	}
}

// Property: generated MovieLens workloads round-trip losslessly
// (expression string, size, universe attributes).
func TestWorkloadRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := datasets.DefaultMovieLensConfig()
		cfg.Users, cfg.Movies = 6, 3
		w := datasets.MovieLens(cfg, rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		agg := w.Prov.(*provenance.Agg)
		if err := Save(&buf, &Bundle{Agg: agg, Universe: w.Universe}); err != nil {
			return false
		}
		out, err := Load(&buf)
		if err != nil {
			return false
		}
		if out.Agg.String() != agg.String() {
			return false
		}
		for _, a := range agg.Annotations() {
			if out.Universe.Table(a) != w.Universe.Table(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSummary(t *testing.T) {
	p := provenance.NewAgg(provenance.AggMax,
		provenance.Tensor{Prov: provenance.V("U1"), Value: 3, Count: 1, Group: "MP"},
		provenance.Tensor{Prov: provenance.V("U2"), Value: 5, Count: 1, Group: "MP"},
	)
	u := provenance.NewUniverse()
	u.Add("U1", "users", provenance.Attrs{"g": "x"})
	u.Add("U2", "users", provenance.Attrs{"g": "x"})
	u.Add("MP", "movies", nil)
	pol := constraints.NewPolicy(u, constraints.SameTable(), constraints.SharedAttr("g"))
	est := &distance.Estimator{
		Class: valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2"}),
		Phi:   provenance.CombineOr,
		VF:    distance.Euclidean(),
	}
	s, err := core.New(core.Config{Policy: pol, Estimator: est, WSize: 1, MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSummary(&buf, sum); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"steps"`, `"groups"`, `"g:x"`, `"stopReason"`} {
		if !strings.Contains(buf.String(), frag) {
			t.Fatalf("summary JSON missing %s:\n%s", frag, buf.String())
		}
	}
}

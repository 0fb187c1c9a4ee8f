package server

import (
	"context"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/store"
)

// summarizeOnce posts one summarize request and returns the response
// and its X-Prox-Cache state.
func summarizeOnce(t *testing.T, url string, req summarizeRequest) (summarizeResponse, string) {
	t.Helper()
	var out summarizeResponse
	res := post(t, url+"/api/summarize", req, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("summarize status = %d", res.StatusCode)
	}
	return out, res.Header.Get("X-Prox-Cache")
}

// TestCacheHitEqualsMiss holds a cache hit to the miss that published
// it, live and after a restart, under both valuation classes. Under the
// attribute class the Prop. 4.2.1 pre-step merges annotations the merge
// trace does not name, so a hit that replays only the trace would serve
// a different summary.
func TestCacheHitEqualsMiss(t *testing.T) {
	for _, class := range []string{"annotation", "attribute"} {
		t.Run(class, func(t *testing.T) {
			dir := t.TempDir()
			st1, err := store.Open(dir, store.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			s1, ts1 := jobsServer(t, jobsWorkload(), WithStore(st1))
			sid := selectAll(t, ts1)
			req := cacheSummarizeReq(sid)
			req.ValuationClass = class

			miss, state := summarizeOnce(t, ts1.URL, req)
			if state != "miss" {
				t.Fatalf("first X-Prox-Cache = %q, want miss", state)
			}
			if class == "attribute" {
				named := map[string]bool{}
				for _, st := range miss.Steps {
					named[st.New] = true
				}
				preStep := false
				for _, g := range miss.Groups {
					preStep = preStep || !named[g.Name]
				}
				if !preStep {
					t.Fatal("the attribute-class run merged nothing in the Prop. 4.2.1 pre-step; the case tests nothing")
				}
			}
			same := func(when string, got summarizeResponse, state string) {
				t.Helper()
				if state != "hit" || !got.Cached {
					t.Fatalf("%s: X-Prox-Cache = %q, cached = %v, want a hit", when, state, got.Cached)
				}
				got.Cached, got.ElapsedMS = false, miss.ElapsedMS
				if !reflect.DeepEqual(got, miss) {
					t.Fatalf("%s: hit diverges from the miss:\nhit:  %+v\nmiss: %+v", when, got, miss)
				}
			}
			hit, state := summarizeOnce(t, ts1.URL, req)
			same("live", hit, state)

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s1.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if err := st1.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := store.Open(dir, store.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st2.Close() })
			_, ts2 := jobsServer(t, jobsWorkload(), WithStore(st2))
			hit, state = summarizeOnce(t, ts2.URL, req)
			same("after restart", hit, state)
		})
	}
}

// TestStepViewMatchesApplyReplay holds every step of /api/step to the
// whole-expression Apply replay of the summary's trace: step 0 is the
// original selection, and step n ≥ 1 composes the Prop. 4.2.1
// pre-step's merges and the first n steps. The last step is the
// summary itself.
func TestStepViewMatchesApplyReplay(t *testing.T) {
	for _, class := range []string{"annotation", "attribute"} {
		t.Run(class, func(t *testing.T) {
			s, ts := jobsServer(t, jobsWorkload())
			sid := selectAll(t, ts)
			req := cacheSummarizeReq(sid)
			req.ValuationClass = class
			resp, _ := summarizeOnce(t, ts.URL, req)
			sess, ok := s.sessionFor(context.Background(), sid)
			if !ok {
				t.Fatalf("session %s not found", sid)
			}
			sum := s.summaryOf(sess)
			if class == "attribute" && len(sum.Equivalences) == 0 {
				t.Fatal("the attribute-class run merged nothing in the Prop. 4.2.1 pre-step; the case tests nothing")
			}
			for n := 0; n <= len(sum.Steps); n++ {
				want := sum.Original
				if n > 0 {
					for _, st := range slices.Concat(sum.Equivalences, sum.Steps[:n]) {
						want = want.Apply(provenance.MergeMapping(st.New, st.Members...))
					}
				}
				var got stepResponse
				if res := getJSON(t, ts.URL+"/api/step?sessionId="+sid+"&n="+strconv.Itoa(n), &got); res.StatusCode != http.StatusOK {
					t.Fatalf("step %d status = %d", n, res.StatusCode)
				}
				if got.Expression != want.String() || got.Size != want.Size() {
					t.Fatalf("step %d = %s (size %d), Apply replay %s (size %d)", n, got.Expression, got.Size, want, want.Size())
				}
				if n == len(sum.Steps) && (got.Expression != resp.Expression || got.Size != resp.Size) {
					t.Fatalf("last step = %s (size %d), summary %s (size %d)", got.Expression, got.Size, resp.Expression, resp.Size)
				}
			}
		})
	}
}

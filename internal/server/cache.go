// cache.go wires the content-addressed summary cache into the server:
// cache-key computation from the session's expression, the request
// config and the constraint policy; replaying a cached merge trace into
// a full summary on a hit; publishing completed runs; and the admin
// flush endpoint. The singleflight layer that collapses concurrent
// identical submissions lives in internal/jobs — here we only derive
// the dedup key and count coalesced submissions.
package server

import (
	"net/http"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/provenance"
	"repro/internal/summarycache"
)

// cacheKeyFor computes the content address of one summarization
// request: (expression fingerprint, config fingerprint, constraint-set
// fingerprint, annotation-metadata fingerprint — plus the seed
// fingerprint for warm-started Extend runs). Two requests with equal
// keys run Algorithm 1 to the same summary, so one's journaled merge
// trace can stand in for the other's run. The annotation metadata
// fingerprint guards persisted entries across restarts: the same
// expression over differently-attributed annotations (another seed,
// another workload sharing the store directory) must not share
// entries. The seed fingerprint keeps seeded and unseeded runs apart:
// a seeded summary carries its seed prefix, so it is not the summary a
// from-scratch run of the same expression produces. The key's estimator
// comes back too: a hit replays its trace on a run of it.
func (s *Server) cacheKeyFor(sess *session, params codec.JobParams, seed provenance.Groups) (summarycache.Key, *distance.Estimator) {
	s.mu.Lock()
	prov := sess.prov
	s.mu.Unlock()
	kind := classKind(params.Class)
	cfg := core.Config{
		Estimator:  s.estimatorFor(prov, kind),
		WDist:      params.WDist,
		WSize:      params.WSize,
		TargetSize: params.TargetSize,
		TargetDist: params.TargetDist,
		MaxSteps:   params.Steps,
	}
	exprFP := provenance.Fingerprint(prov)
	cfgFP := cfg.Fingerprint()
	annFP := provenance.UniverseFingerprint(s.workload.Universe, prov.Annotations())
	if len(seed) > 0 {
		seedFP := seedFingerprint(seed)
		return summarycache.KeyFrom(exprFP[:], cfgFP[:], s.policyFP[:], annFP[:], seedFP[:]), cfg.Estimator
	}
	return summarycache.KeyFrom(exprFP[:], cfgFP[:], s.policyFP[:], annFP[:]), cfg.Estimator
}

// serveFromCache replays a cached merge trace into a summary for sess on
// est (cacheKeyFor's), publishing it on the session (and journaling it,
// with a store) just as a completed job would — minus the run itself.
func (s *Server) serveFromCache(sess *session, est *distance.Estimator, entry *codec.CacheEntryRecord) (*core.Summary, error) {
	sumRec := &codec.SummaryRecord{
		SessionID:    sess.id,
		Class:        entry.Class,
		Equivalences: entry.Equivalences,
		Steps:        entry.Steps,
		Dist:         entry.Dist,
		StopReason:   entry.StopReason,
	}
	sum, err := s.rebuildSummary(sess, est, sumRec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	sess.summary = sum
	sess.class = classKind(entry.Class)
	s.mu.Unlock()
	if s.st != nil {
		if err := s.st.PutSummary(sumRec); err != nil {
			s.log.Error("journaling cached summary failed", "session", sess.id, "err", err)
		}
	}
	s.met.cacheHits.Inc()
	s.log.Info("summary served from cache", "session", sess.id, "key", entry.Key, "steps", len(entry.Steps))
	return sum, nil
}

// publishToCache stores a completed run's merge trace under its content
// address and journals it, so identical future requests — including
// ones after a restart — replay the trace instead of re-running. The
// entry is also registered under the session's warm-start prefix, so a
// request made after the expression grows by ingest (exact key miss)
// can still find it as an Extend seed.
func (s *Server) publishToCache(sess *session, key summarycache.Key, params codec.JobParams, sum *core.Summary) {
	prefix := s.warmPrefixFor(sess, params)
	rec := &codec.CacheEntryRecord{
		Key:          key.String(),
		Class:        params.Class,
		Equivalences: codec.StepsFromCore(sum.Equivalences),
		Steps:        codec.StepsFromCore(sum.Steps),
		Dist:         sum.Dist,
		StopReason:   sum.StopReason,
		CreatedMS:    time.Now().UnixMilli(),
		Tenant:       sess.tenant,
		Prefix:       prefix.String(),
	}
	// The publishing tenant owns the entry's bytes until eviction; a
	// tenant past its MaxCacheBytes quota keeps its result but stops
	// consuming shared cache space. The size is computed once here —
	// eviction and drop paths get it back from the cache's own account.
	size := cacheRecSize(rec)
	if !s.acquireCacheQuota(sess.tenant, size) {
		s.log.Warn("cache publish denied by tenant quota", "tenant", sess.tenant, "key", rec.Key)
		return
	}
	if !s.cache.PutWithPrefix(key, prefix, rec) {
		// Journaling a rejected entry would resurrect it on replay (or
		// grow the WAL for an entry the cache never held): count it and
		// skip the store.
		s.releaseCacheQuota(sess.tenant, size)
		s.met.cacheRejected.Inc()
		s.log.Warn("cache rejected summary entry", "key", rec.Key, "steps", len(rec.Steps))
		s.updateCacheGauges()
		return
	}
	if s.st != nil {
		if err := s.st.PutCacheEntry(rec); err != nil {
			s.log.Error("journaling cache entry failed", "key", rec.Key, "err", err)
		}
	}
	s.updateCacheGauges()
}

// onCacheEvict journals LRU/TTL evictions so replay does not resurrect
// them. Called with the cache lock held; it must not call back into the
// cache (gauges are refreshed at the Put/Get call sites instead).
func (s *Server) onCacheEvict(k summarycache.Key, rec *codec.CacheEntryRecord, size int64, _ summarycache.EvictReason) {
	s.met.cacheEvictions.Inc()
	s.releaseCacheQuota(rec.Tenant, size)
	if s.st != nil {
		if err := s.st.DropCacheEntry(k.String()); err != nil {
			s.log.Error("journaling cache eviction failed", "key", k.String(), "err", err)
		}
	}
}

func (s *Server) updateCacheGauges() {
	st := s.cache.Stats()
	s.met.cacheBytes.Set(float64(st.Bytes))
	s.met.cacheEntries.Set(float64(st.Entries))
}

// handleCacheFlush implements POST /api/cache/flush. In single-tenant
// mode (no registry) it drops every cached summary — the admin
// operation for a constraint or dataset change that fingerprints alone
// cannot see. With a tenant registry the flush is scoped to the
// caller: only entries the tenant itself published are dropped, so one
// tenant cannot destroy another's warm entries, and the dropped
// entries' bytes — exactly the set removed, as accounted by the cache —
// are returned to the tenant's quota without racing a concurrent
// publish.
func (s *Server) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeErr(w, http.StatusConflict, "summary cache is disabled")
		return
	}
	if s.tenants != nil {
		t := tenantFrom(r.Context())
		if t == nil {
			writeErr(w, http.StatusForbidden, "cache flush requires an authenticated tenant")
			return
		}
		flushed := s.cache.FlushOwned(t.ID())
		for _, f := range flushed {
			s.releaseCacheQuota(t.ID(), f.Size)
			if s.st != nil {
				if err := s.st.DropCacheEntry(f.Rec.Key); err != nil {
					s.log.Error("journaling cache flush drop failed", "key", f.Rec.Key, "err", err)
				}
			}
		}
		s.updateCacheGauges()
		s.log.Info("tenant cache entries flushed", "tenant", t.ID(), "entries", len(flushed))
		writeJSON(w, http.StatusOK, map[string]int{"flushed": len(flushed)})
		return
	}
	n := s.cache.Flush()
	if s.st != nil {
		if err := s.st.FlushCache(); err != nil {
			s.log.Error("journaling cache flush failed", "err", err)
		}
	}
	s.updateCacheGauges()
	s.log.Info("summary cache flushed", "entries", n)
	writeJSON(w, http.StatusOK, map[string]int{"flushed": n})
}

// fingerprint.go gives Config a canonical content address over its
// scoring-relevant fields, for use in summary cache keys: two configs
// with equal fingerprints — run over the same expression, policy and
// valuation class — produce the same summary, so a cached merge trace
// may be replayed instead of re-running Algorithm 1.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Fingerprint digests the fields of the config that determine which
// summary Algorithm 1 produces: the score weights and bounds, the step
// budget, merge arity, tie-breaking mode, the candidate cap, and the
// estimator's distance setup (φ, VAL-FUNC, valuation class, sampling).
// Runtime knobs — the estimator's Parallelism, observers,
// checkpointing — are deliberately excluded: the scorers choose bit-identical summaries at
// any worker count.
//
// Two caveats callers must own: a config with CandidateCap > 0 samples
// its candidate sets from Rand, so equal fingerprints then only mean
// equal distributions, not equal summaries — don't cache such runs
// keyed by this digest alone. And the estimator's valuation class is
// identified by its Name(), so distinct classes must not share names.
func (c Config) Fingerprint() [32]byte {
	h := sha256.New()
	write := func(b []byte) { _, _ = h.Write(b) }
	writeU64 := func(v uint64) {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], v)
		write(buf[:])
	}
	writeF64 := func(v float64) { writeU64(math.Float64bits(v)) }
	writeStr := func(s string) {
		writeU64(uint64(len(s)))
		write([]byte(s))
	}
	writeBool := func(b bool) {
		if b {
			write([]byte{1})
		} else {
			write([]byte{0})
		}
	}

	// v2: cached traces carry the Prop. 4.2.1 pre-step's merges, which
	// v1 entries lack, so those miss instead of replaying short.
	writeStr("core.Config/v2")
	writeF64(c.WDist)
	writeF64(c.WSize)
	writeU64(uint64(c.TargetSize))
	writeF64(c.TargetDist)
	writeU64(uint64(c.MaxSteps))
	writeBool(c.TieBreakSum)
	writeU64(uint64(c.CandidateCap))
	writeU64(uint64(c.MergeArity))

	if e := c.Estimator; e != nil {
		writeBool(true)
		writeU64(uint64(e.Samples))
		writeF64(e.MaxError)
		if e.Phi != nil {
			writeStr(e.Phi.Name())
		} else {
			writeStr("")
		}
		writeStr(e.VF.Name)
		if e.Class != nil {
			writeStr(e.Class.Name())
		} else {
			writeStr("")
		}
	} else {
		writeBool(false)
	}

	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

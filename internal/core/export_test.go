package core

import (
	"fmt"
	"slices"

	"repro/internal/provenance"
)

// CheckCarry makes s carry every committed merge into its step state
// right away and verify that the state equals a rebuild: the carried
// pair list must be the one the merge predicted for exactly the next
// step's annotation set, and equal a fresh enumeration over it, and
// every carried probe must equal one built afresh on the same plan
// state. carried, when non-nil, receives the number of probes carried
// into each step.
func CheckCarry(s *Summarizer, carried func(probes int)) {
	s.checkCarry = func(cur provenance.Expression, c *stepCarry) error {
		c.flush(s.cfg.Policy)
		anns := cur.Annotations()
		pl := &c.pairs
		if !pl.ok {
			return fmt.Errorf("pair list not carried")
		}
		if !slices.Equal(pl.anns, anns) {
			return fmt.Errorf("carried annotation set %v, want %v", pl.anns, anns)
		}
		fresh := (&pairList{}).forAnns(s.cfg.Policy, anns)
		if !slices.Equal(pl.pairs, fresh) {
			return fmt.Errorf("carried pairs %v, want %v", pl.pairs, fresh)
		}
		n, err := c.probes.Check()
		if carried != nil {
			carried(n)
		}
		return err
	}
}

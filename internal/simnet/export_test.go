package simnet

import (
	"time"

	"repro/internal/enode"
	"repro/internal/nodefinder"
	"repro/internal/nodefinder/mlog"
)

// OutcomeAt is SimDialer's analytic outcome of one dial at virtual
// time at, without scheduling its completion on the world's clock.
func (d *SimDialer) OutcomeAt(target *enode.Node, kind mlog.ConnType, at time.Time) *nodefinder.DialResult {
	p := new(simDial)
	d.mu.Lock()
	p.res.Duration = d.outcome(&p.res, &p.hello, target, kind, at)
	d.mu.Unlock()
	return &p.res
}

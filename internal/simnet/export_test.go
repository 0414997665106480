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
	res := new(nodefinder.DialResult)
	res.Duration = d.outcome(res, target, kind, at)
	return res
}

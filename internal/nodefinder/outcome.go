package nodefinder

import (
	"strconv"
	"strings"

	"repro/internal/devp2p"
	"repro/internal/eth"
	"repro/internal/rlpx"
	"repro/internal/snappy"
)

// Outcome is a connection result's class in the paper's failure
// taxonomy (§5.2: dead addresses, NAT timeouts, peer-limit
// rejections, non-eth services, productive handshakes), extended
// with the adversarial failure classes the hardened transport can
// distinguish: forged frame MACs, oversized frames and messages,
// corrupt snappy payloads, stalled handshakes, and protocol-order
// violations. Its String is the class's label in finder.conn_errors
// and dialer.outcomes. The zero value is not a class: it marks a
// DialResult not yet classified.
type Outcome uint8

// The outcome classes. The error classes come first, in the order the
// classifier tries them: an error that wraps two sentinels takes the
// class of the one listed first.
const (
	OutcomeRLPxBadMAC Outcome = iota + 1
	OutcomeFrameOversize
	OutcomeMsgOversize
	OutcomeSnappyCorrupt
	OutcomeProtocolViolation
	OutcomeNoCommonCaps
	OutcomeStatusMismatch
	OutcomeRLPxBadHandshake
	OutcomeHandshakeTimeout
	OutcomeTCPTimeout
	OutcomeTCPRefused
	OutcomeTCPReset
	OutcomeRLPxError
	OutcomeRLPMalformed
	OutcomeErrorOther
	OutcomeTooManyPeers
	OutcomeDisconnected
	OutcomeEthHandshake
	OutcomeHelloNoEth
	OutcomeNoHandshake

	numOutcomes
)

var outcomeLabels = [numOutcomes]string{
	OutcomeRLPxBadMAC:        "rlpx-bad-mac",
	OutcomeFrameOversize:     "frame-oversize",
	OutcomeMsgOversize:       "msg-oversize",
	OutcomeSnappyCorrupt:     "snappy-corrupt",
	OutcomeProtocolViolation: "protocol-violation",
	OutcomeNoCommonCaps:      "no-common-caps",
	OutcomeStatusMismatch:    "status-mismatch",
	OutcomeRLPxBadHandshake:  "rlpx-bad-handshake",
	OutcomeHandshakeTimeout:  "handshake-timeout",
	OutcomeTCPTimeout:        "tcp-timeout",
	OutcomeTCPRefused:        "tcp-refused",
	OutcomeTCPReset:          "tcp-reset",
	OutcomeRLPxError:         "rlpx-error",
	OutcomeRLPMalformed:      "rlp-malformed",
	OutcomeErrorOther:        "error-other",
	OutcomeTooManyPeers:      "too-many-peers",
	OutcomeDisconnected:      "disconnected",
	OutcomeEthHandshake:      "eth-handshake",
	OutcomeHelloNoEth:        "hello-no-eth",
	OutcomeNoHandshake:       "no-handshake",
}

// String returns the class's label.
func (o Outcome) String() string {
	if o == 0 || o >= numOutcomes {
		return "Outcome(" + strconv.Itoa(int(o)) + ")"
	}
	return outcomeLabels[o]
}

// Outcome returns res's class. The first call classifies and res
// keeps the answer, so a dial that both the dialer's and the Finder's
// instruments observe is classified once. Like the rest of a
// DialResult it is not for concurrent use, and a result is not
// changed once it has been observed.
func (res *DialResult) Outcome() Outcome {
	if res.outcome == 0 {
		res.outcome = classify(res)
	}
	return res.outcome
}

// OutcomeClass is res.Outcome's label. Both the real dialer and the
// simulated one classify through the one classifier, so their
// telemetry is comparable.
func OutcomeClass(res *DialResult) string { return res.Outcome().String() }

// sentinelOutcomes gives each transport sentinel its class, in
// Outcome order.
var sentinelOutcomes = [...]struct {
	err     error
	outcome Outcome
}{
	{rlpx.ErrBadHeaderMAC, OutcomeRLPxBadMAC},
	{rlpx.ErrBadFrameMAC, OutcomeRLPxBadMAC},
	{rlpx.ErrFrameTooBig, OutcomeFrameOversize},
	{devp2p.ErrMsgTooBig, OutcomeMsgOversize},
	{eth.ErrMsgTooBig, OutcomeMsgOversize},
	{snappy.ErrCorrupt, OutcomeSnappyCorrupt},
	{snappy.ErrTooLarge, OutcomeSnappyCorrupt},
	{devp2p.ErrUnexpectedMessage, OutcomeProtocolViolation},
	{eth.ErrNoStatus, OutcomeProtocolViolation},
	{devp2p.ErrNoCommonProtocol, OutcomeNoCommonCaps},
	{eth.ErrNetworkMismatch, OutcomeStatusMismatch},
	{eth.ErrGenesisMismatch, OutcomeStatusMismatch},
	{eth.ErrProtocolMismatch, OutcomeStatusMismatch},
	{rlpx.ErrBadHandshake, OutcomeRLPxBadHandshake},
}

// classify is the one classifier. An error is classed by the first
// sentinel it wraps; one that wraps none, by its message.
func classify(res *DialResult) Outcome {
	switch {
	case res.Err != nil:
		if o := sentinelOutcome(res.Err, numOutcomes); o != numOutcomes {
			return o
		}
		msg := res.Err.Error()
		switch {
		case strings.Contains(msg, "rlpx") && strings.Contains(msg, "timeout"):
			return OutcomeHandshakeTimeout
		case strings.Contains(msg, "timeout"):
			return OutcomeTCPTimeout
		case strings.Contains(msg, "refused"):
			return OutcomeTCPRefused
		case strings.Contains(msg, "reset"):
			return OutcomeTCPReset
		case strings.Contains(msg, "rlpx"):
			return OutcomeRLPxError
		case strings.Contains(msg, "decoding hello") || strings.Contains(msg, "rlp"):
			return OutcomeRLPMalformed
		default:
			return OutcomeErrorOther
		}
	case res.Disconnect != nil:
		if *res.Disconnect == devp2p.DiscTooManyPeers {
			return OutcomeTooManyPeers
		}
		return OutcomeDisconnected
	case res.Status != nil:
		return OutcomeEthHandshake
	case res.Hello != nil:
		return OutcomeHelloNoEth
	default:
		return OutcomeNoHandshake
	}
}

// sentinelOutcome returns the earliest class, before best, of a
// sentinel that err's tree holds, or best if it holds none. It is
// errors.Is for every sentinel at once: one walk of the tree, in
// errors.Is's order, where a node matches a sentinel it equals or
// whose Is method claims it.
func sentinelOutcome(err error, best Outcome) Outcome {
	for err != nil {
		is, hasIs := err.(interface{ Is(error) bool })
		for _, s := range &sentinelOutcomes {
			if s.outcome >= best {
				break
			}
			if err == s.err || hasIs && is.Is(s.err) {
				best = s.outcome
				break
			}
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				best = sentinelOutcome(e, best)
			}
			return best
		default:
			return best
		}
	}
	return best
}

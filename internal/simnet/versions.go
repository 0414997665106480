package simnet

import (
	"time"
)

// Release is one client release.
type Release struct {
	Version string
	Date    time.Time
	Stable  bool
}

func day(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// GethReleases is the Geth release train around the measurement
// window (§6.2: the top versions are the 8 most recent stable
// releases, with v1.8.5 and v1.8.9 quickly replaced; v1.8.12 landed
// July 5, three days before collection ended).
var GethReleases = []Release{
	{"v1.7.3-stable", day(2017, time.November, 21), true},
	{"v1.8.1-stable", day(2018, time.February, 19), true},
	{"v1.8.2-stable", day(2018, time.March, 5), true},
	{"v1.8.3-stable", day(2018, time.March, 23), true},
	{"v1.8.4-stable", day(2018, time.April, 9), true},
	{"v1.8.6-stable", day(2018, time.April, 16), true},
	{"v1.8.7-stable", day(2018, time.April, 25), true},
	{"v1.8.8-stable", day(2018, time.May, 14), true},
	{"v1.8.10-stable", day(2018, time.June, 13), true},
	{"v1.8.11-stable", day(2018, time.June, 20), true},
	{"v1.8.12-stable", day(2018, time.July, 5), true},
}

// ParityReleases models Parity's faster, mixed-channel release train
// (§6.2: weekly releases in stable/beta/rc states, so the deployed
// version distribution is sparse and only 56.2% run stable builds).
var ParityReleases = []Release{
	{"v1.9.5-stable", day(2018, time.March, 15), true},
	{"v1.9.6-beta", day(2018, time.March, 22), false},
	{"v1.9.7-stable", day(2018, time.April, 2), true},
	{"v1.10.0-beta", day(2018, time.April, 10), false},
	{"v1.10.1-rc", day(2018, time.April, 17), false},
	{"v1.10.2-beta", day(2018, time.April, 24), false},
	{"v1.10.3-stable", day(2018, time.May, 8), true},
	{"v1.10.4-beta", day(2018, time.May, 15), false},
	{"v1.10.5-beta", day(2018, time.May, 29), false},
	{"v1.10.6-stable", day(2018, time.June, 12), true},
	{"v1.10.7-beta", day(2018, time.June, 19), false},
	{"v1.10.8-beta", day(2018, time.July, 2), false},
	{"v1.10.9-stable", day(2018, time.July, 7), true},
}

// versionAt returns the release a node with the given upgrade lag
// runs at time t: the newest release that is at least lagDays old
// from the node's perspective. stableOnly restricts the candidate
// set to stable-channel releases.
func versionAt(releases []Release, t time.Time, lagDays float64, stableOnly bool) Release {
	lag := time.Duration(lagDays * 24 * float64(time.Hour))
	var best *Release
	for i := range releases {
		r := &releases[i]
		if stableOnly && !r.Stable {
			continue
		}
		if t.Sub(r.Date) >= lag && (best == nil || r.Date.After(best.Date)) {
			best = r
		}
	}
	if best == nil {
		// Nothing old enough on the channel: run the earliest
		// qualifying release.
		for i := range releases {
			if !stableOnly || releases[i].Stable {
				return releases[i]
			}
		}
		return releases[0]
	}
	return *best
}

// ClientNameAt composes the node's full DEVp2p client identifier at
// virtual time t, in the formats real clients use. Each distinct name
// is built once and shared.
func (w *World) ClientNameAt(n *SimNode, t time.Time) string {
	switch n.Client {
	case ClientGeth, ClientParity:
		k := clientName{client: n.Client, version: n.PinnedVersion, os: n.OSBuild}
		switch {
		case k.version != "":
		case n.Client == ClientGeth:
			k.version = versionAt(GethReleases, t, n.UpgradeLagDays, false).Version
			// Source builds track the development branch: the same
			// version number with the unstable tag.
			k.dev = n.DevBuild
		default:
			k.version = versionAt(ParityReleases, t, n.UpgradeLagDays, n.StableOnly).Version
		}
		return w.names.get(k)
	case ClientEthereumJS:
		if n.Abusive {
			return "ethereumjs-devp2p/v1.0.0"
		}
		return "ethereumjs-devp2p/v2.1.3"
	case ClientCpp:
		return "cpp-ethereum/v1.3.0/linux"
	case ClientHarmony:
		return "EthereumJ/v1.8.2/Harmony"
	default:
		return "unknown-client/v0.1"
	}
}

package census_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/census"
	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

// FuzzFoldVsOracle decodes a byte string into a short crawl — entries
// over at most 16 identities, four bytes each, cut by at most six
// publishes — and holds the daemon to the oracle after every publish.
// Every byte steers one thing a contribution depends on, so the fuzzer
// reaches the retract paths (a bucket emptied, an identity leaving
// Mainnet, an address resolved anew) by flipping single bytes.
func FuzzFoldVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			interval     = census.DefaultInterval
			maxPublishes = 6
			maxEntries   = 96
		)
		clients := []string{"Geth/v1.8.10-stable/linux", "Geth/v1.8.11-stable/linux", "Geth/v1.9.0-unstable",
			"Parity/v1.10.6-stable", "Parity/v1.11.0-beta", "cpp-ethereum/v1.3.0", "/anonymous", "noslash"}
		caps := [][]string{{"eth/63"}, {"les/2"}, {"bzz/0", "eth/62"}, {"foo/1"}}
		genesis := []string{chain.MainnetGenesisHash.Hex(), "0x01"}
		stances := []string{"supported", "opposed", "unknown", ""}

		db := geo.NewDB()
		clk := simclock.NewSimulated(t0)
		d := census.NewDaemon(census.DaemonConfig{Clock: clk, Geo: db, MaxPoints: 3})
		d.Start()
		defer d.Stop()
		var log []*mlog.Entry
		publishes := 0
		publish := func(advance time.Duration) {
			clk.Advance(advance)
			snap := d.Current()
			if advance == 0 {
				snap = d.Publish()
			}
			publishes++
			sameCensus(t, fmt.Sprintf("publish %d", publishes), snap, census.BuildParams{
				Now: clk.Now(), Start: t0, Interval: interval, Entries: log, Geo: db, MaxPoints: 3,
			})
		}
		for len(data) > 0 && publishes < maxPublishes && len(log) < maxEntries {
			if data[0] >= 0xf0 {
				// A tick, or (odd) an out-of-band publish between ticks.
				publish(time.Duration(1-data[0]&1) * interval)
				data = data[1:]
				continue
			}
			if len(data) < 4 {
				break
			}
			who, how, status, where := data[0], data[1], data[2], data[3]
			data = data[4:]
			// The dial began up to 28 minutes ago: inside the lag, so the
			// oracle's series, which knows no late entry, is the daemon's.
			e := &mlog.Entry{
				Time:     clk.Now().Add(-time.Duration(who>>4) * 2 * time.Minute),
				NodeID:   fmt.Sprintf("%02x", who%16),
				IP:       fmt.Sprintf("%d.%d.0.7", 11+where%4*40, where>>2%3),
				ConnType: mlog.ConnDynamicDial,
			}
			switch how % 8 {
			case 0:
				e.Err = "connection refused"
			case 1:
				e.IP = "not an address"
				fallthrough
			case 2:
				reason := uint64(0x04)
				e.DisconnectReason = &reason
			default:
				e.LatencyUS = 1000 + int64(where)
				e.Hello = &mlog.HelloInfo{Version: 5, ClientName: clients[how>>3%8], Caps: caps[how>>6]}
				if status&1 != 0 {
					e.Status = &mlog.StatusInfo{ProtocolVersion: 63, NetworkID: uint64(1 + status>>1%4),
						GenesisHash: genesis[status>>3%2], BestBlock: 5_500_000 + uint64(status)}
					e.DAOFork = stances[status>>4%4]
				}
			}
			log = append(log, e)
			d.Record(e)
		}
		publish(interval)
	})
}

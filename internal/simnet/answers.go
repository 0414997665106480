package simnet

import (
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/devp2p"
	"repro/internal/eth"
)

// What World.answer hands out is shared between dials and with the
// DialResults the crawler keeps, built once and never written again:
// whoever receives it must not mutate it (DESIGN.md, "What dials
// share").

// serviceCaps is the capability list each service a node can draw
// announces.
var serviceCaps = func() map[Service][]devp2p.Cap {
	m := map[Service][]devp2p.Cap{
		SvcEth: {{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
		SvcLES: {{Name: "les", Version: 2}},
		SvcPIP: {{Name: "pip", Version: 1}},
	}
	for _, s := range PaperServiceDistribution {
		if m[s.Service] == nil {
			m[s.Service] = []devp2p.Cap{{Name: (&SimNode{Service: s.Service}).CapName(), Version: 1}}
		}
	}
	return m
}()

// clientName keys clientNames; dev marks a source build, whose
// version's -stable tag becomes -unstable.
type clientName struct {
	client      ClientType
	version, os string
	dev         bool
}

// clientNames builds each of a few dozen client identifiers once.
type clientNames struct {
	sync.Mutex
	m map[clientName]string
}

func (c *clientNames) get(k clientName) string {
	c.Lock()
	defer c.Unlock()
	if s, ok := c.m[k]; ok {
		return s
	}
	v := k.version
	if k.dev {
		v = strings.Replace(v, "-stable", "-unstable", 1)
	}
	c.m[k] = string(k.client) + "/" + v + "/" + k.os
	return c.m[k]
}

// heads is a network's direct-mapped table of answers by best block:
// its synced nodes share one best block at any instant.
type heads [64]atomic.Pointer[headState]

// headState is the STATUS of a network's nodes whose head is at best,
// at eth/62 and eth/63, the versions a world node can negotiate.
type headState struct {
	best   uint64
	td     big.Int
	status [2]eth.Status
}

// head returns the answer at best, building it on a miss; two dials
// that miss at once build equal values.
func (nw *Network) head(best uint64) *headState {
	slot := &nw.heads[best%uint64(len(nw.heads))]
	if h := slot.Load(); h != nil && h.best == best {
		return h
	}
	h := &headState{best: best}
	h.td.SetUint64(best * 131072)
	for i, v := range [2]uint{eth.Version62, eth.Version63} {
		h.status[i] = eth.Status{ProtocolVersion: uint32(v), NetworkID: nw.NetworkID,
			TD: &h.td, BestHash: nw.BestHashAt(best), GenesisHash: nw.GenesisHash}
	}
	slot.Store(h)
	return h
}

// statusAt returns the STATUS at eth version v, 62 or 63.
func (h *headState) statusAt(v uint) *eth.Status { return &h.status[v-eth.Version62] }

// headerAt synthesizes block num of nw's chain as a node whose head is
// at best serves it: nothing above the head. A block's time follows
// from its number on a 15-second block clock, so the DAO fork block,
// the one a crawler asks for, is built once per network. daoVerdict
// decides whether the fork window carries dao-hard-fork.
func (nw *Network) headerAt(best, num uint64) *chain.Header {
	switch {
	case num > best:
		return nil
	case num == chain.DAOForkBlock:
		nw.forkOnce.Do(func() { nw.fork = nw.buildHeader(num) })
		return nw.fork
	}
	return nw.buildHeader(num)
}

func (nw *Network) buildHeader(num uint64) *chain.Header {
	at := nw.baseTime.Add(time.Duration(int64(num)-int64(nw.base)) * 15 * time.Second)
	h := &chain.Header{Difficulty: big.NewInt(131072), Number: new(big.Int).SetUint64(num),
		GasLimit: 8_000_000, Time: uint64(at.Unix())}
	if num < chain.DAOForkBlock+10 && nw.daoVerdict(num) == eth.DAOForkSupported {
		h.Extra = append([]byte(nil), chain.DAOForkBlockExtra...)
	}
	return h
}

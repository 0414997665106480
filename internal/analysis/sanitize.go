// Package analysis implements the paper's data analyses over
// NodeFinder measurement logs: the §5.4 sanitization filter, the
// ecosystem censuses of §6 (services, networks, clients, versions),
// and the §7 network comparisons (size, geography, latency,
// freshness).
package analysis

import (
	"sort"
	"time"

	"repro/internal/nodefinder/mlog"
)

// NodeObservation aggregates everything the log saw about one node
// identity.
type NodeObservation struct {
	ID        string
	IP        string
	FirstSeen time.Time
	LastSeen  time.Time
	// FirstResponsive/LastResponsive bound the node's *responsive*
	// activity: entries where it actually answered (HELLO or
	// DISCONNECT). Failed re-dials to a dead address extend
	// LastSeen but not LastResponsive; the §5.4 liveness filter
	// works on the responsive span.
	FirstResponsive time.Time
	LastResponsive  time.Time
	Responsive      bool
	// EntryCount is how many log records named this node.
	EntryCount int
	// Entries are this node's log records, in time order. Only
	// Aggregate fills it; the Aggregator fold retains no entries.
	Entries []*mlog.Entry

	// Convenience fields extracted from the most recent useful
	// entries.
	ClientName  string
	Caps        []string
	NetworkID   uint64
	GenesisHash string
	BestBlock   uint64
	// LastStatusTime is when BestBlock was reported; freshness must
	// be judged against the chain head at that moment.
	LastStatusTime time.Time
	HasStatus      bool
	DAOFork        string // "", "supported", "opposed", "unknown"
	LatencyUS      int64

	// Seq numbers the identities of one Aggregator in the order it first
	// saw them, from 0: a dense index for state kept beside the table.
	Seq      int
	touched  bool // on the Aggregator's touched list
	unsorted bool // Aggregate: Entries arrived out of time order
}

// Active returns how long the identity was observed.
func (o *NodeObservation) Active() time.Duration { return o.LastSeen.Sub(o.FirstSeen) }

// ResponsiveSpan returns how long the identity actually answered.
func (o *NodeObservation) ResponsiveSpan() time.Duration {
	if !o.Responsive {
		return 0
	}
	return o.LastResponsive.Sub(o.FirstResponsive)
}

// answered reports whether the peer actually responded in this entry
// (HELLO or DISCONNECT, the paper's "responding" criterion).
func answered(e *mlog.Entry) bool { return e.Hello != nil || e.DisconnectReason != nil }

// Aggregator is the census's node table as an explicit fold: Add
// merges one log entry into its identity's observation and keeps
// nothing else of it, so the table costs memory per identity, not per
// entry. The census daemon folds each tick's new entries into one
// long-lived Aggregator; Aggregate folds a whole log into a fresh one.
// Fields with a "latest wins" rule resolve ties by fold order, so the
// result is a function of the entry sequence.
type Aggregator struct {
	nodes   map[string]*NodeObservation
	touched []*NodeObservation
}

// NewAggregator returns an empty node table.
func NewAggregator() *Aggregator {
	return &Aggregator{nodes: make(map[string]*NodeObservation)}
}

// Nodes returns the live node table. It is the Aggregator's own map:
// later Adds update it in place.
func (a *Aggregator) Nodes() map[string]*NodeObservation { return a.nodes }

// Touched returns the observations Add has updated since the previous
// call, each once, in the order first touched. The next Add reuses the
// slice.
func (a *Aggregator) Touched() []*NodeObservation {
	t := a.touched
	for _, o := range t {
		o.touched = false
	}
	a.touched = t[:0]
	return t
}

// Add folds one entry into its identity's observation and returns
// that observation, or nil for an entry without a node ID. It does not
// retain e.
func (a *Aggregator) Add(e *mlog.Entry) *NodeObservation {
	if e.NodeID == "" {
		return nil
	}
	o, ok := a.nodes[e.NodeID]
	if !ok {
		o = &NodeObservation{ID: e.NodeID, FirstSeen: e.Time, LastSeen: e.Time, Seq: len(a.nodes)}
		a.nodes[e.NodeID] = o
	}
	if !o.touched {
		o.touched = true
		a.touched = append(a.touched, o)
	}
	o.EntryCount++
	if e.Time.Before(o.FirstSeen) {
		o.FirstSeen = e.Time
	}
	if e.Time.After(o.LastSeen) {
		o.LastSeen = e.Time
	}
	if answered(e) {
		if !o.Responsive || e.Time.Before(o.FirstResponsive) {
			o.FirstResponsive = e.Time
		}
		if !o.Responsive || e.Time.After(o.LastResponsive) {
			o.LastResponsive = e.Time
		}
		o.Responsive = true
	}
	if e.IP != "" {
		o.IP = e.IP
	}
	if e.Hello != nil {
		o.ClientName = e.Hello.ClientName
		o.Caps = e.Hello.Caps
	}
	if e.Status != nil && !e.Time.Before(o.LastStatusTime) {
		o.NetworkID = e.Status.NetworkID
		o.GenesisHash = e.Status.GenesisHash
		o.BestBlock = e.Status.BestBlock
		o.LastStatusTime = e.Time
		o.HasStatus = true
	}
	if e.DAOFork != "" {
		o.DAOFork = e.DAOFork
	}
	if e.LatencyUS > 0 {
		o.LatencyUS = e.LatencyUS
	}
	return o
}

// Aggregate groups log entries into per-node observations: the
// Aggregator fold over the whole log, plus each node's own records
// (Entries), which only the offline analyses need. Only the nodes
// whose records arrived out of time order are sorted: sort.Slice
// leaves a non-decreasing slice as it is, so skipping the others
// changes nothing.
func Aggregate(entries []*mlog.Entry) map[string]*NodeObservation {
	a := NewAggregator()
	var unsorted []*NodeObservation
	for _, e := range entries {
		if o := a.Add(e); o != nil {
			if n := len(o.Entries); n > 0 && !o.unsorted && e.Time.Before(o.Entries[n-1].Time) {
				o.unsorted = true
				unsorted = append(unsorted, o)
			}
			o.Entries = append(o.Entries, e)
		}
	}
	for _, o := range unsorted {
		o.unsorted = false
		sort.Slice(o.Entries, func(i, j int) bool { return o.Entries[i].Time.Before(o.Entries[j].Time) })
	}
	return a.nodes
}

// SanitizeResult reports the §5.4 filter outcome.
type SanitizeResult struct {
	// AbusiveIPs maps each flagged IP to the node IDs it minted.
	AbusiveIPs map[string][]string
	// AbusiveNodes is the set of removed node IDs.
	AbusiveNodes map[string]bool
	// Kept is the sanitized observation set.
	Kept map[string]*NodeObservation
}

// Sanitize applies the paper's exact five-step abusive-IP filter:
//
//  1. Choose nodes active for less than 30 minutes.
//  2. Group the chosen nodes by IP.
//  3. Exclude IPs that map to fewer than 3 nodes.
//  4. Calculate each IP's new-node generation rate.
//  5. Flag IPs that generate new nodes every 30 minutes or faster on
//     average.
//
// Nodes from flagged IPs are removed from the dataset.
func Sanitize(nodes map[string]*NodeObservation) *SanitizeResult {
	const shortLived = 30 * time.Minute

	// Steps 1-2. "Active" means responsive activity: a dead address
	// that keeps refusing re-dials is not active.
	byIP := map[string][]*NodeObservation{}
	for _, o := range nodes {
		if o.Responsive && o.ResponsiveSpan() < shortLived && o.IP != "" {
			byIP[o.IP] = append(byIP[o.IP], o)
		}
	}

	res := &SanitizeResult{
		AbusiveIPs:   map[string][]string{},
		AbusiveNodes: map[string]bool{},
		Kept:         map[string]*NodeObservation{},
	}
	for ip, group := range byIP {
		// Step 3.
		if len(group) < 3 {
			continue
		}
		// Step 4: generation rate = span of first-contact times /
		// (n-1) new IDs.
		first, last := group[0].FirstResponsive, group[0].FirstResponsive
		for _, o := range group {
			if o.FirstResponsive.Before(first) {
				first = o.FirstResponsive
			}
			if o.FirstResponsive.After(last) {
				last = o.FirstResponsive
			}
		}
		span := last.Sub(first)
		interval := span / time.Duration(len(group)-1)
		// Step 5.
		if interval <= shortLived {
			ids := make([]string, 0, len(group))
			for _, o := range group {
				ids = append(ids, o.ID)
				res.AbusiveNodes[o.ID] = true
			}
			sort.Strings(ids)
			res.AbusiveIPs[ip] = ids
		}
	}
	for id, o := range nodes {
		if !res.AbusiveNodes[id] {
			res.Kept[id] = o
		}
	}
	return res
}

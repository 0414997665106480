package bench

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"net"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/census"
	"repro/internal/chain"
	"repro/internal/crypto/ecies"
	"repro/internal/crypto/keccak"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/discv4"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/netpipe"
	"repro/internal/nodedb"
	"repro/internal/rlp"
	"repro/internal/rlpx"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/snappy"
)

// Probes measure the layers no seam isolates: tight loops over a
// layer's public functions on the message shapes the workloads put
// through them. They use the plan codec and the production secp256k1
// backend as linked, and touch neither the oracles nor the switches
// that select them, so those can be deleted without editing this file.

// probeBatches is how many timed batches a probe runs; the reported
// figure is the median batch, so one preempted batch does not move it.
const probeBatches = 5

// sink keeps the compiler from discarding a probe's result.
var sink any

// probe times n calls of fn per batch and returns the median batch's
// nanoseconds and heap allocations per call.
func probe(n int, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm caches, pools and lazily built plans
	var ns, allocs []float64
	for b := 0; b < probeBatches; b++ {
		m0 := mallocs()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(mallocs()-m0)/float64(n))
	}
	return Median(ns), Median(allocs)
}

// runProbes fills every probe metric into m. seed only shapes inputs;
// shrink divides every iteration count and table size (1 for the
// benchmark, more in tests).
func runProbes(seed int64, m map[string]float64, shrink int) {
	set := func(name string, div float64, n int, fn func()) {
		ns, allocs := probe(max(n/shrink, 1), fn)
		m[name] = ns / div
		// foo_ns → foo_allocs, for the probes that have an allocs metric.
		allocsName := name[:strings.LastIndexByte(name, '_')] + "_allocs"
		if _, ok := metricByName(allocsName); ok {
			m[allocsName] = allocs
		}
	}
	const ns, us, ms = 1, 1e3, 1e6
	rng := mrand.New(mrand.NewSource(seed))

	// simclock: schedule one timer and fire it, with 100k others pending.
	clk := simclock.NewSimulated(serveT0)
	for i := 0; i < 100_000/shrink; i++ {
		clk.AfterFunc(time.Duration(1+rng.Intn(1000))*time.Hour, func() {})
	}
	set("simclock.schedule_fire_ns", ns, 20_000, func() {
		clk.AfterFunc(time.Millisecond, func() {})
		clk.Advance(time.Millisecond)
	})

	// nodedb at the crawl-sim table size.
	db := nodedb.New()
	now := serveT0
	nodes := make([]*enode.Node, 100_000/shrink)
	for i := range nodes {
		nodes[i] = enode.New(enode.RandomID(rng), net.IPv4(10, byte(i>>16), byte(i>>8), byte(i)), 30303, 30303)
		db.RecordSuccess(nodes[i], now)
	}
	i := 0
	next := func() *enode.Node { i = (i + 7919) % len(nodes); return nodes[i] }
	set("nodedb.ensure_ns", ns, 50_000, func() { sink = db.Ensure(next(), now) })
	set("nodedb.record_dial_ns", ns, 50_000, func() { db.RecordDial(next(), now) })
	set("nodedb.get_ns", ns, 50_000, func() { sink = db.Get(next().ID) })
	set("nodedb.expire_stale_ms", ms, 5, func() { sink = db.ExpireStale(now.Add(time.Hour), 24*time.Hour) })

	// simnet world construction, per 2 000 analytic / 200 wire nodes.
	set("simnet.new_world_ms", ms, 1, func() {
		cfg := simnet.DefaultConfig(seed)
		cfg.BaseNodes, cfg.AbusiveIPs = 2000/shrink, 0
		sink = simnet.NewWorld(cfg)
	})
	set("simnet.new_world_wire_ms", ms, 1, func() { sink = newWireWorld(200/shrink, seed) })

	// secp256k1, ecies, keccak.
	keyA, errA := secp256k1.GenerateKey(rng)
	keyB, errB := secp256k1.GenerateKey(rng)
	if errA != nil || errB != nil {
		panic(fmt.Sprint("bench: minting probe keys: ", errA, errB))
	}
	digest := keccak.Sum256([]byte("probe"))
	sig, err := secp256k1.Sign(keyA, digest[:])
	must(err)
	set("secp256k1.sign_us", us, 300, func() { sink, _ = secp256k1.Sign(keyA, digest[:]) })
	set("secp256k1.recover_us", us, 300, func() { sink, _ = secp256k1.RecoverPubkey(digest[:], sig) })
	set("secp256k1.ecdh_us", us, 300, func() { sink, _ = secp256k1.SharedSecret(keyA, &keyB.Pub) })
	set("secp256k1.genkey_us", us, 300, func() { sink, _ = secp256k1.GenerateKey(rng) })
	auth := make([]byte, 300) // an EIP-8 auth body with its padding
	rng.Read(auth)
	sealed, err := ecies.Encrypt(rand.Reader, &keyB.Pub, auth, nil, nil)
	must(err)
	set("ecies.encrypt_us", us, 200, func() { sink, _ = ecies.Encrypt(rand.Reader, &keyB.Pub, auth, nil, nil) })
	set("ecies.decrypt_us", us, 200, func() { sink, _ = ecies.Decrypt(keyB, sealed, nil, nil) })
	block := make([]byte, 136)
	set("keccak.sum256_136B_ns", ns, 5_000, func() { sink = keccak.Sum256(block) })

	// rlpx over an in-memory pipe: a whole handshake pair, then frames.
	set("rlpx.handshake_pair_us", us, 40, func() {
		c, s := netpipe.Pair()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer s.Close()
			rlpx.AcceptTimeout(s, keyB, 5*time.Second) //nolint:errcheck // the initiator's error reports the pair
		}()
		_, err := rlpx.InitiateTimeout(c, keyA, enode.PubkeyID(&keyB.Pub), 5*time.Second)
		c.Close()
		<-done
		must(err)
	})
	probeFrames(m, keyA, keyB, max(2000/shrink, 1))

	// rlp plan codec on the handshake-path messages.
	hello := &devp2p.Hello{
		Version: devp2p.Version, Name: "Geth/v1.8.11-stable/linux-amd64/go1.10",
		Caps:       []devp2p.Cap{{Name: "eth", Version: 62}, {Name: "eth", Version: 63}},
		ListenPort: 30303, ID: enode.PubkeyID(&keyA.Pub),
	}
	status := &eth.Status{
		ProtocolVersion: uint32(eth.Version63), NetworkID: 1,
		TD:       new(big.Int).SetBytes([]byte{0x02, 0x3c, 0x91, 0xd7, 0xbb, 0x2e, 0x8f, 0x41, 0x55, 0xaa}),
		BestHash: chain.Hash(digest), GenesisHash: chain.MainnetGenesisHash,
	}
	headers := []*chain.Header{{
		Difficulty: big.NewInt(131072), Number: new(big.Int).SetUint64(chain.DAOForkBlock),
		GasLimit: 8_000_000, Time: 1469020840, Extra: chain.DAOForkBlockExtra,
	}}
	helloEnc, statusEnc, headersEnc := mustEncode(hello), mustEncode(status), mustEncode(headers)
	scratch := make([]byte, 0, 1024)
	set("rlp.hello_encode_ns", ns, 20_000, func() { sink, _ = rlp.EncodeAppend(scratch[:0], hello) })
	set("rlp.hello_decode_ns", ns, 20_000, func() { var h devp2p.Hello; must(rlp.DecodeBytes(helloEnc, &h)) })
	set("rlp.status_encode_ns", ns, 20_000, func() { sink, _ = rlp.EncodeAppend(scratch[:0], status) })
	set("rlp.status_decode_ns", ns, 20_000, func() { var s eth.Status; must(rlp.DecodeBytes(statusEnc, &s)) })
	set("rlp.headers_decode_ns", ns, 10_000, func() { var h []*chain.Header; must(rlp.DecodeBytes(headersEnc, &h)) })

	// snappy on the two payloads a dial compresses.
	for _, p := range []struct {
		name string
		raw  []byte
	}{{"status", statusEnc}, {"header", headersEnc}} {
		packed, err := snappy.Encode(p.raw)
		must(err)
		set("snappy.encode_"+p.name+"_ns", ns, 20_000, func() { sink, _ = snappy.Encode(p.raw) })
		set("snappy.decode_"+p.name+"_ns", ns, 20_000, func() { sink, _ = snappy.DecodeCapped(packed, 1<<20) })
	}

	// discv4: a signed PING, encoded and decoded. No workload drives the
	// UDP transport, so these two figures are all the bench says about it.
	ping := &discv4.Ping{
		Version:    discv4.Version,
		From:       discv4.Endpoint{IP: net.IP{10, 3, 58, 6}, UDP: 30303, TCP: 30303},
		To:         discv4.Endpoint{IP: net.IP{192, 168, 1, 1}, UDP: 30303, TCP: 30303},
		Expiration: 1526987786,
	}
	datagram, _, err := discv4.EncodePacket(keyA, ping)
	must(err)
	set("discv4.packet_encode_us", us, 300, func() { sink, _, _ = discv4.EncodePacket(keyA, ping) })
	set("discv4.packet_decode_us", us, 300, func() { sink, _, _, _ = discv4.DecodePacket(datagram) })

	// geo and enode: per-node costs of world minting and of Finder.record.
	gdb := geo.NewDB()
	ip := net.IPv4(52, 14, 3, 9)
	set("geo.country_ns", ns, 5_000, func() { sink = gdb.Country(ip) })
	set("enode.id_string_ns", ns, 20_000, func() { sink = hello.ID.String() })
	set("enode.pubkey_id_ns", ns, 20_000, func() { sink = enode.PubkeyID(&keyA.Pub) })

	// analysis and census on the census-serve population log.
	log := servePopulation(FullSizes.ServePopulation/shrink, seed, census.DefaultInterval)
	sort.SliceStable(log, func(i, j int) bool { return log[i].Time.Before(log[j].Time) })
	const windows = 3
	set("analysis.aggregate_ms", ms, 3, func() { sink = analysis.Aggregate(log) })
	set("analysis.epoch_series_ms", ms, 3, func() { sink = analysis.EpochSeries(log, serveT0, census.DefaultInterval, windows) })
	gdb2 := geo.NewDB()
	set("census.build_snapshot_ms", ms, 1, func() {
		sink = census.BuildSnapshot(census.BuildParams{
			Epoch: windows + 1, Now: serveT0.Add((windows + 1) * census.DefaultInterval), Start: serveT0,
			Interval: census.DefaultInterval, Entries: log, Geo: gdb2,
		})
	})
	// Approximate: three separate loops, so cache effects differ.
	m["census.build_self_ms"] = m["census.build_snapshot_ms"] - m["analysis.aggregate_ms"] - m["analysis.epoch_series_ms"]

	// census serving, one request class at a time on a quiet daemon.
	served := setupCensusServe(FullSizes.ServePopulation/shrink, seed)
	c := newServeClient(seed, 0, false)
	for class, name := range reqClassNames {
		set("census.serve_"+name+"_ns", ns, 5_000, func() {
			c.prepare(served, class)
			if c.serve(served) {
				panic("bench: probe request " + c.req.URL.Path + " failed")
			}
		})
	}
	served.daemon.Stop()

	// metrics instruments on the crawl and serve hot paths.
	reg := metrics.New()
	ctr, hist := reg.Counter("probe.counter"), reg.Histogram("probe.histogram")
	v := uint64(0)
	set("metrics.counter_inc_ns", ns, 200_000, func() { ctr.Inc() })
	set("metrics.histogram_observe_ns", ns, 200_000, func() { v += 977; hist.Observe(v & 0xfffff) })
}

// probeFrames measures one message round trip over an established RLPx
// pair (a STATUS-sized payload each way, snappy on), with its allocs.
func probeFrames(m map[string]float64, keyA, keyB *secp256k1.PrivateKey, n int) {
	c, s := netpipe.Pair()
	defer c.Close()
	var server *rlpx.Conn
	var acceptErr error
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		server, acceptErr = rlpx.AcceptTimeout(s, keyB, 5*time.Second)
	}()
	client, err := rlpx.InitiateTimeout(c, keyA, enode.PubkeyID(&keyB.Pub), 5*time.Second)
	<-accepted
	if err != nil || acceptErr != nil {
		s.Close()
		panic(fmt.Sprint("bench: probe handshake failed: ", err, acceptErr))
	}
	defer server.Close()
	client.SetSnappy(true)
	server.SetSnappy(true)

	echoDone := make(chan struct{})
	go func() { // echo until the client closes
		defer close(echoDone)
		for {
			code, payload, err := server.ReadMsg()
			if err != nil {
				return
			}
			if server.WriteMsg(code, payload) != nil {
				return
			}
		}
	}()
	payload := make([]byte, 80)
	ns, allocs := probe(n, func() {
		must(client.WriteMsg(0x10, payload))
		_, _, err := client.ReadMsg()
		must(err)
	})
	m["rlpx.frame_roundtrip_us"], m["rlpx.frame_allocs"] = ns/1e3, allocs
	c.Close()
	<-echoDone
}

func must(err error) {
	if err != nil {
		panic("bench: probe failed: " + err.Error())
	}
}

func mustEncode(v any) []byte {
	b, err := rlp.EncodeToBytes(v)
	must(err)
	return b
}

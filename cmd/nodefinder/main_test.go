package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlpx"
	"repro/internal/simnet"
	"repro/internal/testutil/leakcheck"

	cryptorand "crypto/rand"
)

// TestRunSim crawls a small simulated world for one virtual day in
// each snapshot format. run fails unless the finder.conns counters
// reconcile with the log; the test also counts the log's lines
// itself and checks the periodic snapshots are in the format asked
// for.
func TestRunSim(t *testing.T) {
	leakcheck.Check(t)
	for _, format := range []string{"text", "json"} {
		t.Run(format, func(t *testing.T) {
			logPath := filepath.Join(t.TempDir(), "crawl.jsonl")
			var stdout, stderr bytes.Buffer
			err := run([]string{"-sim", "-nodes", "150", "-days", "1", "-seed", "3",
				"-log", logPath, "-metrics-interval", "8h", "-metrics-format", format}, &stdout, &stderr)
			if err != nil {
				t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
			}
			entries, err := mlog.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("reconciled: finder.conns total %d == %d mlog connection records", len(entries), len(entries))
			if len(entries) == 0 || !strings.Contains(stdout.String(), want) {
				t.Fatalf("stdout lacks %q:\n%s", want, stdout.String())
			}
			for _, s := range []string{"crawl complete:", "final metrics:", "identities:", "DEVp2p services:", "Clients (verified Mainnet subset):"} {
				if !strings.Contains(stdout.String(), s) {
					t.Errorf("stdout lacks %q", s)
				}
			}

			// 24 virtual hours at an 8 h cadence: three periodic dumps.
			dumps := 0
			sc := bufio.NewScanner(&stderr)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				line := sc.Text()
				switch {
				case format == "text" && strings.HasPrefix(line, "--- metrics @ "):
					dumps++
				case format == "json" && strings.HasPrefix(line, "{"):
					var d map[string]json.RawMessage
					if err := json.Unmarshal([]byte(line), &d); err != nil || d["time"] == nil || d["snapshot"] == nil {
						t.Fatalf("snapshot line %.80q: %v", line, err)
					}
					dumps++
				}
			}
			if dumps != 3 {
				t.Errorf("%d %s snapshots on stderr, want 3", dumps, format)
			}
		})
	}
}

// TestRunReal crawls three loopback bootnodes over real sockets for
// two seconds, which their dial at start fits in: an honest Mainnet
// node of a simnet world, whose log record must hold its HELLO, its
// STATUS and a DAO verdict; an observer that records the STATUS -real
// announces, which must carry Mainnet's genesis so a genesis-checking
// peer keeps the session up to the DAO check; and a UDP socket that
// never answers, which draws a ping warning. Every socket is closed
// on return.
func TestRunReal(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls for 2 s of wall time")
	}
	leakcheck.Check(t)
	cfg := simnet.DefaultConfig(5)
	cfg.BaseNodes = 40
	cfg.AbusiveIPs = 0
	cfg.WireFidelity = true
	w := simnet.NewWorld(cfg)
	defer w.CloseWire()
	var honest *simnet.SimNode
	for _, n := range w.Nodes {
		if n.Network == w.Mainnet && n.Service == simnet.SvcEth && !n.Hostile && n.OnlineAt(w.Clock.Now()) &&
			n.BestBlockAt(w.Clock.Now()) > chain.DAOForkBlock {
			honest = n
			break
		}
	}
	if honest == nil {
		t.Fatal("no online Mainnet node in the world")
	}
	honest.Occupancy = 0
	served, err := w.ServeLoopback(honest)
	if err != nil {
		t.Fatal(err)
	}
	observer, announced := statusObserver(t)

	silent, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	key, err := secp256k1.GenerateKey(cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	port := silent.LocalAddr().(*net.UDPAddr).Port
	boot := enode.New(enode.PubkeyID(&key.Pub), net.IPv4(127, 0, 0, 1), uint16(port), uint16(port))

	logPath := filepath.Join(t.TempDir(), "crawl.jsonl")
	var stdout, stderr bytes.Buffer
	err = run([]string{"-real", "-bootnodes", served.String() + "," + observer.String() + "," + boot.String(),
		"-duration", "2s", "-metrics-interval", "1s", "-log", logPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "warning: bootstrap ping") {
		t.Errorf("no ping warning for a silent bootnode:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "--- metrics @ ") {
		t.Errorf("no periodic snapshot on stderr")
	}
	if !strings.Contains(stdout.String(), "crawl complete:") || strings.Contains(stdout.String(), "reconciled:") {
		t.Errorf("stdout:\n%s", stdout.String())
	}

	entries, err := mlog.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	verified := false
	for _, e := range entries {
		if e.NodeID == honest.Node.ID.String() && e.Hello != nil && e.Status != nil && e.DAOFork != "" {
			verified = e.Hello.ClientName == w.ClientNameAt(honest, w.Clock.Now()) &&
				e.Status.GenesisHash == chain.MainnetGenesisHash.Hex() && e.DAOFork == "supported"
		}
	}
	if !verified {
		t.Errorf("no record of the world node's HELLO, STATUS and DAO verdict in %d entries", len(entries))
	}
	select {
	case st := <-announced:
		if st.NetworkID != chain.MainnetNetworkID || st.GenesisHash != chain.MainnetGenesisHash {
			t.Errorf("-real announced network %d, genesis %x; want Mainnet's", st.NetworkID, st.GenesisHash)
		}
	default:
		t.Error("the observer bootnode never read a STATUS")
	}
}

// statusObserver is a bootnode that takes one connection through RLPx
// and HELLO and reports the STATUS its dialer announces.
func statusObserver(t *testing.T) (*enode.Node, <-chan *eth.Status) {
	t.Helper()
	key, err := secp256k1.GenerateKey(cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	announced := make(chan *eth.Status, 1)
	go func() {
		fd, err := ln.Accept()
		if err != nil {
			return
		}
		defer fd.Close()
		fd.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		conn, err := rlpx.Accept(fd, key)
		if err != nil {
			return
		}
		hello := &devp2p.Hello{Version: devp2p.Version, Name: "observer", Caps: []devp2p.Cap{{Name: eth.ProtocolName, Version: 63}}, ID: enode.PubkeyID(&key.Pub)}
		if _, err := devp2p.ExchangeHello(conn, hello); err != nil {
			return
		}
		conn.SetSnappy(true)
		if st, err := eth.ReadStatus(conn, devp2p.BaseProtocolLength); err == nil {
			announced <- st
		}
	}()
	port := ln.Addr().(*net.TCPAddr).Port
	return enode.New(enode.PubkeyID(&key.Pub), net.IPv4(127, 0, 0, 1), uint16(port), uint16(port)), announced
}

func TestRunErrors(t *testing.T) {
	missingDir := filepath.Join(t.TempDir(), "missing", "crawl.jsonl")
	for _, tc := range []struct {
		args   []string
		status int
	}{
		{[]string{"-bogus"}, 2},
		{[]string{"-real"}, 1},
		{[]string{"-real", "-bootnodes", "enode://nonsense"}, 1},
		{[]string{"-log", missingDir}, 1},
	} {
		err := run(tc.args, &bytes.Buffer{}, &bytes.Buffer{})
		if got := cli.Status(err, &bytes.Buffer{}); err == nil || got != tc.status {
			t.Errorf("%v: err %v, status %d; want status %d", tc.args, err, got, tc.status)
		}
	}
	if err := run([]string{"-h"}, &bytes.Buffer{}, &bytes.Buffer{}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}

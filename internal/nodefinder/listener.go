package nodefinder

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/eth"
	"repro/internal/nodefinder/mlog"
	"repro/internal/rlpx"
)

// Listener accepts inbound RLPx connections for a Finder. NodeFinder
// "accepts all incoming connections and never sends out Too many
// peers disconnects" (§3 observation 3 / §4): every inbound session
// is handshaken, its HELLO and (when offered) STATUS are recorded,
// and the connection is released.
type Listener struct {
	Key    *secp256k1.PrivateKey
	Hello  devp2p.Hello
	Status eth.Status
	Finder *Finder

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once
}

// ListenIncoming starts accepting inbound connections on addr (empty
// means an ephemeral loopback port). f may be nil at creation and
// assigned to Finder before the address is announced; sessions that
// complete with no Finder attached are dropped.
func ListenIncoming(addr string, key *secp256k1.PrivateKey, hello devp2p.Hello, status eth.Status, f *Finder) (*Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp4", addr)
	if err != nil {
		return nil, fmt.Errorf("nodefinder: listen: %w", err)
	}
	l := &Listener{Key: key, Hello: hello, Status: status, Finder: f, ln: ln, closed: make(chan struct{})}
	l.Hello.ID = enode.PubkeyID(&key.Pub)
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listening address.
func (l *Listener) Addr() *net.TCPAddr { return l.ln.Addr().(*net.TCPAddr) }

// Close stops the listener and waits for in-flight sessions.
func (l *Listener) Close() {
	l.once.Do(func() {
		close(l.closed)
		l.ln.Close()
	})
	l.wg.Wait()
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		fd, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.handle(fd)
		}()
	}
}

// handle runs the inbound measurement session: RLPx accept, HELLO,
// optional STATUS, then release.
func (l *Listener) handle(fd net.Conn) {
	defer fd.Close()
	if l.Finder == nil {
		return
	}
	// Wall time by design: the listener only serves real TCP sessions.
	start := time.Now()
	res := &DialResult{Kind: mlog.ConnIncoming, Start: start}

	conn, err := rlpx.Accept(fd, l.Key)
	if err != nil {
		// Without an identity there is nothing useful to record.
		return
	}
	remoteIP := net.IPv4zero
	var remotePort uint16
	if tcp, ok := fd.RemoteAddr().(*net.TCPAddr); ok {
		remoteIP = tcp.IP
		remotePort = uint16(tcp.Port)
	}
	res.Node = enode.New(conn.RemoteID(), remoteIP, remotePort, remotePort)

	theirs, err := devp2p.ExchangeHello(conn, &l.Hello)
	if err != nil {
		var de devp2p.DisconnectError
		if errors.As(err, &de) {
			res.Disconnect = &de.Reason
		} else {
			res.Err = err
		}
		res.Duration = time.Since(start)
		l.Finder.HandleIncoming(res)
		return
	}
	res.Hello = theirs

	// If the peer shares eth, exchange STATUS to learn its chain.
	if ethCap, ok := eth.Negotiate(conn, &l.Hello, theirs); ok {
		st := l.Status
		st.ProtocolVersion = uint32(ethCap.Version)
		if err := eth.SendStatus(conn, ethCap.Offset, &st); err == nil {
			if theirStatus, err := eth.ReadStatus(conn, ethCap.Offset); err == nil {
				res.Status = theirStatus
			}
		}
	}

	// Done collecting: free the slot (the peer may keep talking; we
	// politely disconnect instead).
	devp2p.SendDisconnect(conn, devp2p.DiscRequested) //nolint:errcheck
	res.Duration = time.Since(start)
	res.RTT = conn.SmoothedRTT()
	l.Finder.HandleIncoming(res)
}

package rlpx

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/secp256k1"
	"repro/internal/enode"
	"repro/internal/netpipe"
	"repro/internal/testutil/leakcheck"
)

func testKey(t testing.TB, seed int64) *secp256k1.PrivateKey {
	t.Helper()
	k, err := secp256k1.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// handshakePair runs both handshake sides over an in-memory pipe.
func handshakePair(t *testing.T, initKey, recipKey *secp256k1.PrivateKey) (*Conn, *Conn) {
	t.Helper()
	c1, c2 := net.Pipe()
	recipID := enode.PubkeyID(&recipKey.Pub)

	var (
		wg        sync.WaitGroup
		initConn  *Conn
		recipConn *Conn
		initErr   error
		recipErr  error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		initConn, initErr = Initiate(c1, initKey, recipID)
		if initErr != nil {
			c1.Close() // unblock the other side on failure
		}
	}()
	go func() {
		defer wg.Done()
		recipConn, recipErr = Accept(c2, recipKey)
		if recipErr != nil {
			c2.Close()
		}
	}()
	wg.Wait()
	if initErr != nil {
		t.Fatalf("initiator: %v", initErr)
	}
	if recipErr != nil {
		t.Fatalf("recipient: %v", recipErr)
	}
	t.Cleanup(func() { initConn.Close(); recipConn.Close() })
	return initConn, recipConn
}

func TestHandshakeIdentities(t *testing.T) {
	leakcheck.Check(t)
	initKey, recipKey := testKey(t, 1), testKey(t, 2)
	ic, rc := handshakePair(t, initKey, recipKey)
	if ic.RemoteID() != enode.PubkeyID(&recipKey.Pub) {
		t.Error("initiator learned wrong recipient ID")
	}
	if rc.RemoteID() != enode.PubkeyID(&initKey.Pub) {
		t.Error("recipient learned wrong initiator ID")
	}
}

func TestMessageExchange(t *testing.T) {
	leakcheck.Check(t)
	ic, rc := handshakePair(t, testKey(t, 3), testKey(t, 4))
	ic.SetTimeouts(2*time.Second, 2*time.Second)
	rc.SetTimeouts(2*time.Second, 2*time.Second)

	done := make(chan error, 1)
	go func() {
		code, payload, err := rc.ReadMsg()
		if err != nil {
			done <- err
			return
		}
		if code != 0x10 || !bytes.Equal(payload, []byte{0xC1, 0x05}) {
			t.Errorf("got code %#x payload %x", code, payload)
		}
		done <- rc.WriteMsg(0x11, []byte{0xC0})
	}()
	if err := ic.WriteMsg(0x10, []byte{0xC1, 0x05}); err != nil {
		t.Fatal(err)
	}
	code, payload, err := ic.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if code != 0x11 || !bytes.Equal(payload, []byte{0xC0}) {
		t.Fatalf("reply code %#x payload %x", code, payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestManyMessagesBothDirections(t *testing.T) {
	leakcheck.Check(t)
	// The CTR keystream and rolling MACs must stay in sync over a
	// long exchange with varied sizes.
	ic, rc := handshakePair(t, testKey(t, 5), testKey(t, 6))
	ic.SetTimeouts(5*time.Second, 5*time.Second)
	rc.SetTimeouts(5*time.Second, 5*time.Second)

	rng := rand.New(rand.NewSource(7))
	const rounds = 60
	var wg sync.WaitGroup
	wg.Add(1)
	errs := make(chan error, rounds*2+1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			code, payload, err := rc.ReadMsg()
			if err != nil {
				errs <- err
				return
			}
			if err := rc.WriteMsg(code+1, payload); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		payload := make([]byte, rng.Intn(3000))
		rng.Read(payload)
		if err := ic.WriteMsg(uint64(i), payload); err != nil {
			t.Fatal(err)
		}
		code, echo, err := ic.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if code != uint64(i)+1 || !bytes.Equal(echo, payload) {
			t.Fatalf("round %d: bad echo (code %d, %d bytes)", i, code, len(echo))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHandshakeWrongRecipientKey(t *testing.T) {
	leakcheck.Check(t)
	// Initiator expects identity A but the listener holds key B: the
	// ECIES decryption fails on the listener side and the initiator
	// errors out.
	initKey, realKey, claimedKey := testKey(t, 8), testKey(t, 9), testKey(t, 10)
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()

	go func() {
		Accept(c2, realKey) //nolint:errcheck // must fail; error checked via initiator
		c2.Close()
	}()
	_, err := Initiate(c1, initKey, enode.PubkeyID(&claimedKey.Pub))
	if err == nil {
		t.Fatal("handshake with wrong identity succeeded")
	}
}

func TestFrameTamperingDetected(t *testing.T) {
	leakcheck.Check(t)
	// A bit flipped on the wire must break the frame MAC.
	initKey, recipKey := testKey(t, 11), testKey(t, 12)
	c1, c2 := net.Pipe()
	// Closing both ends unblocks the garbage writer below: the reader
	// consumes only the frame header before failing its MAC check, so
	// the unbuffered pipe would otherwise pin the writer forever.
	defer c1.Close()
	defer c2.Close()
	recipID := enode.PubkeyID(&recipKey.Pub)

	// tamperConn flips a bit in the first frame after the handshake.
	var ic *Conn
	var initErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ic, initErr = Initiate(c1, initKey, recipID)
	}()
	rc, err := Accept(c2, recipKey)
	wg.Wait()
	if err != nil || initErr != nil {
		t.Fatal(err, initErr)
	}
	ic.SetTimeouts(2*time.Second, 2*time.Second)
	rc.SetTimeouts(2*time.Second, 2*time.Second)

	go func() {
		// Write a message, manually corrupting it by writing through
		// the raw pipe afterwards is impossible; instead corrupt by
		// breaking MAC sync: write garbage straight to the fd.
		c1.Write(make([]byte, 48))
	}()
	if _, _, err := rc.ReadMsg(); err == nil {
		t.Fatal("garbage frame accepted")
	}
}

func TestOverLoopbackTCP(t *testing.T) {
	leakcheck.Check(t)
	// Full handshake + messaging over a real TCP socket.
	initKey, recipKey := testKey(t, 13), testKey(t, 14)
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	acceptErr := make(chan error, 1)
	go func() {
		fd, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		conn, err := Accept(fd, recipKey)
		if err != nil {
			acceptErr <- err
			return
		}
		defer conn.Close()
		code, payload, err := conn.ReadMsg()
		if err != nil {
			acceptErr <- err
			return
		}
		acceptErr <- conn.WriteMsg(code, payload)
	}()

	fd, err := net.Dial("tcp4", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Initiate(fd, initKey, enode.PubkeyID(&recipKey.Pub))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMsg(7, []byte{0xC1, 0x2A}); err != nil {
		t.Fatal(err)
	}
	code, payload, err := conn.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if code != 7 || !bytes.Equal(payload, []byte{0xC1, 0x2A}) {
		t.Fatalf("echo mismatch: %d %x", code, payload)
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}
}

func TestRTTAccessors(t *testing.T) {
	leakcheck.Check(t)
	ic, _ := handshakePair(t, testKey(t, 15), testKey(t, 16))
	if ic.SmoothedRTT() != 0 {
		t.Error("initial RTT not zero")
	}
	ic.SetRTT(42 * time.Millisecond)
	if ic.SmoothedRTT() != 42*time.Millisecond {
		t.Error("RTT not stored")
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	initKey, recipKey := testKey(b, 20), testKey(b, 21)
	c1, c2 := net.Pipe()
	recipID := enode.PubkeyID(&recipKey.Pub)
	var ic, rc *Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ic, _ = Initiate(c1, initKey, recipID)
	}()
	rc, err := Accept(c2, recipKey)
	if err != nil {
		b.Fatal(err)
	}
	wg.Wait()
	ic.SetTimeouts(0, 0)
	rc.SetTimeouts(0, 0)
	go func() {
		for {
			code, payload, err := rc.ReadMsg()
			if err != nil {
				return
			}
			rc.WriteMsg(code, payload)
		}
	}()
	payload := make([]byte, 256)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ic.WriteMsg(1, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ic.ReadMsg(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ic.Close()
	rc.Close()
}

// TestGiantFrameFailsFast pins the hardened read path's contract: a
// header advertising the maximum encodable frame (0xFFFFFF bytes,
// ~16 MiB) is rejected from the 32 header bytes alone — before the
// frame buffer is allocated and before any body bytes are read. The
// attacker sends ONLY the header; if the reader tried to read the
// body it would block forever on the in-memory pipe rather than fail.
func TestGiantFrameFailsFast(t *testing.T) {
	leakcheck.Check(t)
	initKey, recipKey := testKey(t, 20), testKey(t, 21)
	ic, rc := handshakePair(t, initKey, recipKey)

	// Hand-craft a valid (correctly encrypted and MAC'd) header using
	// the initiator's egress state, claiming a 16 MiB frame.
	var header [16]byte
	header[0], header[1], header[2] = 0xFF, 0xFF, 0xFF
	copy(header[3:], zeroHeader)
	ic.rw.enc.XORKeyStream(header[:], header[:])
	var wire [32]byte
	copy(wire[:16], header[:])
	copy(wire[16:], ic.rw.em.computeHeaderMAC(header[:]))

	writeDone := make(chan error, 1)
	go func() {
		_, err := ic.fd.Write(wire[:])
		writeDone <- err
	}()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := rc.ReadMsg()
	runtime.ReadMemStats(&after)

	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
	if werr := <-writeDone; werr != nil {
		t.Fatalf("header write: %v", werr)
	}
	// The reject path may allocate error strings and scanner scratch,
	// but never anything on the order of the advertised frame.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reader allocated %d bytes for a frame it rejected from the header", grew)
	}
}

// TestMaxReadFrameConfigurable checks the cap is tunable per
// connection: a payload legal under the default 1 MiB cap fails once
// the receiver lowers its cap below the payload size, and the error
// is the taxonomy's ErrFrameTooBig.
func TestMaxReadFrameConfigurable(t *testing.T) {
	leakcheck.Check(t)
	initKey, recipKey := testKey(t, 22), testKey(t, 23)
	ic, rc := handshakePair(t, initKey, recipKey)

	rc.SetMaxReadFrame(4096)
	payload := bytes.Repeat([]byte{0x55}, 8192)
	writeDone := make(chan error, 1)
	go func() {
		writeDone <- ic.WriteMsg(0x10, payload)
	}()
	_, _, err := rc.ReadMsg()
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
	// Unblock the writer (the pipe is unbuffered and the reader
	// stopped at the header).
	rc.Close()
	ic.Close()
	<-writeDone
}

// netpipePair runs both handshake sides over a buffered in-memory
// conn, the transport the wire benchmark uses.
func netpipePair(tb testing.TB, initKey, recipKey *secp256k1.PrivateKey) (*Conn, *Conn) {
	tb.Helper()
	c, s := netpipe.Pair()
	var server *Conn
	var acceptErr error
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		server, acceptErr = AcceptTimeout(s, recipKey, HandshakeTimeout)
	}()
	client, err := InitiateTimeout(c, initKey, enode.PubkeyID(&recipKey.Pub), HandshakeTimeout)
	<-accepted
	if err != nil || acceptErr != nil {
		c.Close()
		s.Close()
		tb.Fatalf("handshake: initiator %v, recipient %v", err, acceptErr)
	}
	return client, server
}

package faultnet

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
)

// tcpPair returns two ends of a real loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err = net.Dial("tcp4", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

func TestPlanIsDeterministic(t *testing.T) {
	leakcheck.Check(t)
	draws := func() []Kind {
		p := NewPlan(99)
		out := make([]Kind, 50)
		for i := range out {
			out[i], _ = p.draw()
		}
		return out
	}
	a, b := draws(), draws()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different fault sequences:\n%v\n%v", a, b)
	}
	seen := map[Kind]bool{}
	for _, k := range a {
		seen[k] = true
	}
	if len(seen) < 4 {
		t.Fatalf("50 draws hit only %d kinds: %v", len(seen), a)
	}
}

// wrapAs forces a specific fault kind onto one end of a TCP pair.
func wrapAs(t *testing.T, kind Kind, p *Plan) (faulted, peer net.Conn) {
	t.Helper()
	client, server := tcpPair(t)
	fc := newConn(client, p, kind, 7)
	t.Cleanup(func() { fc.Close() })
	return fc, server
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	leakcheck.Check(t)
	fc, peer := wrapAs(t, Corrupt, NewPlan(1))
	msg := bytes.Repeat([]byte{0x00}, 256)
	if _, err := fc.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for _, b := range got {
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want exactly 1", diff)
	}
}

func TestDuplicateWritesTwice(t *testing.T) {
	leakcheck.Check(t)
	fc, peer := wrapAs(t, Duplicate, NewPlan(1))
	msg := []byte("frame")
	if n, err := fc.Write(msg); err != nil || n != len(msg) {
		t.Fatal(n, err)
	}
	got := make([]byte, 2*len(msg))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte("frame"), []byte("frame")...)) {
		t.Fatalf("wire bytes %q", got)
	}
}

func TestReorderSwapsWrites(t *testing.T) {
	leakcheck.Check(t)
	fc, peer := wrapAs(t, Reorder, NewPlan(1))
	fc.Write([]byte("first-"))  //nolint:errcheck
	fc.Write([]byte("second-")) //nolint:errcheck
	got := make([]byte, len("second-first-"))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "second-first-" {
		t.Fatalf("wire order %q", got)
	}
}

func TestTruncateCutsAndCloses(t *testing.T) {
	leakcheck.Check(t)
	p := NewPlan(1)
	// Keep writing messages through fresh conns until the truncation
	// fires (it triggers on a random write), then verify the peer saw
	// a short stream followed by EOF.
	for attempt := 0; attempt < 20; attempt++ {
		fc, peer := wrapAs(t, Truncate, p)
		msg := bytes.Repeat([]byte{0xAB}, 64)
		var cut bool
		for i := 0; i < 10; i++ {
			if _, err := fc.Write(msg); err != nil {
				cut = true
				break
			}
		}
		if !cut {
			continue
		}
		total := 0
		buf := make([]byte, 1024)
		for {
			n, err := peer.Read(buf)
			total += n
			if err != nil {
				break
			}
		}
		if total%len(msg) == 0 {
			t.Fatalf("peer read %d bytes — no partial write observed", total)
		}
		return
	}
	t.Fatal("truncation never fired in 20 connections")
}

func TestLatencyDelaysIO(t *testing.T) {
	leakcheck.Check(t)
	p := NewPlan(1)
	p.Latency = 80 * time.Millisecond
	fc, peer := wrapAs(t, Latency, p)
	start := time.Now()
	fc.Write([]byte("x")) //nolint:errcheck
	one := make([]byte, 1)
	io.ReadFull(peer, one) //nolint:errcheck
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("write arrived after %v, want >= latency", d)
	}
}

func TestStallFreezesThenCloseReleases(t *testing.T) {
	leakcheck.Check(t)
	p := NewPlan(1)
	p.StallFor = time.Hour // effectively forever; Close must release
	fc, _ := wrapAs(t, Stall, p)
	done := make(chan error, 1)
	go func() {
		_, err := fc.Write([]byte("hello"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stalled write returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fc.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("released write reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release the stalled write")
	}
}

func TestResetAbortsConnection(t *testing.T) {
	leakcheck.Check(t)
	p := NewPlan(1)
	p.ResetAfter = 16
	fc, peer := wrapAs(t, Reset, p)
	var err error
	for i := 0; i < 4 && err == nil; i++ {
		_, err = fc.Write(bytes.Repeat([]byte{0x01}, 8))
	}
	if err == nil {
		t.Fatal("reset never fired")
	}
	// The peer eventually observes reset or EOF, never a clean stream.
	peer.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1024)
	for {
		if _, rerr := peer.Read(buf); rerr != nil {
			return
		}
	}
}

func TestSlowLorisTrickles(t *testing.T) {
	leakcheck.Check(t)
	p := NewPlan(1)
	p.LorisChunk = 1
	p.LorisDelay = 10 * time.Millisecond
	fc, peer := wrapAs(t, SlowLoris, p)
	go fc.Write([]byte("abcdefgh")) //nolint:errcheck
	start := time.Now()
	got := make([]byte, 8)
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("8 bytes arrived in %v — not trickled", d)
	}
	if string(got) != "abcdefgh" {
		t.Fatalf("content mangled: %q", got)
	}
}

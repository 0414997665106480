//go:build !race

// Allocation-regression pins for the RLPx session. Excluded under the
// race detector, whose instrumentation changes allocation counts.
package rlpx

import "testing"

// handshakePairAllocBudget is the recorded heap cost of one complete
// handshake, both sides, over netpipe (measured: 19). What is left is
// what no session can share: the AES blocks of two ECIES messages and
// of each side's frame ciphers (8; their CTR streams are held by
// value), the two Conns, each born holding its keys, packets and
// scratch, the pipe, and the test harness's accept goroutine and
// result variables. The handshake this replaced cost about 470;
// before each Conn held its own handshake state, keys and secrets, 59,
// and before the CTR streams were held by value, 27.
const handshakePairAllocBudget = 21

func TestHandshakePairAllocs(t *testing.T) {
	initKey, recipKey := testKey(t, 30), testKey(t, 31)
	allocs := testing.AllocsPerRun(20, func() {
		client, server := netpipePair(t, initKey, recipKey)
		client.Close()
		server.Close()
	})
	if allocs > handshakePairAllocBudget {
		t.Errorf("handshake pair allocates %.0f objects, budget %d", allocs, handshakePairAllocBudget)
	}
	t.Logf("handshake pair: %.0f allocs", allocs)
}

// TestFrameRoundTripAllocs: a STATUS-sized message there and back with
// snappy on allocates nothing — no buffer per layer per frame, and no
// decompressed payload: each reader hands out its own scratch.
func TestFrameRoundTripAllocs(t *testing.T) {
	client, server := netpipePair(t, testKey(t, 32), testKey(t, 33))
	defer client.Close()
	client.SetSnappy(true)
	server.SetSnappy(true)
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			code, payload, err := server.ReadMsg()
			if err != nil || server.WriteMsg(code, payload) != nil {
				return
			}
		}
	}()
	payload := make([]byte, 80)
	allocs := testing.AllocsPerRun(200, func() {
		if err := client.WriteMsg(0x10, payload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := client.ReadMsg(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("frame round trip allocates %.2f objects, want 0", allocs)
	}
	server.Close()
	<-echoDone
}

package rlpx

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/rlp"
	"repro/internal/snappy"
)

// FuzzConnRoundTrip drives a fuzzer-chosen sequence of messages (each
// four script bytes: a 0–70 KiB size and a selector for the code and
// contents) through a Conn pair over netpipe, snappy on or off, with
// the reader's frame cap at its default or at 2·limit. Every message
// must read back exactly as written although each one reuses the
// scratch the earlier ones grew or left stale, an oversized frame
// must fail with ErrFrameTooBig (a snappy payload that only
// decompresses past the cap, with snappy.ErrTooLarge), and no scratch
// buffer either end keeps may exceed maxKeepPayload.
func FuzzConnRoundTrip(f *testing.F) {
	initKey, recipKey := testKey(f, 40), testKey(f, 41)
	f.Add([]byte{80, 0, 0, 0x10}, false, uint16(0))
	f.Add([]byte{80, 0, 0, 0x11, 0xff, 0xff, 0, 0x90, 10, 0, 0, 0x23}, true, uint16(0))
	f.Add([]byte{0, 4, 0, 0x10, 0, 0x18, 1, 0x31, 200, 0, 0, 0x44}, true, uint16(0))
	f.Add([]byte{0, 2, 0, 0x10, 0, 6, 0, 0x10}, false, uint16(600))
	f.Add([]byte{0, 4, 0, 0x11, 0, 0x30, 0, 0x21}, true, uint16(3000))
	f.Fuzz(func(t *testing.T, script []byte, compressed bool, limit uint16) {
		client, server := netpipePair(t, initKey, recipKey)
		defer client.Close()
		defer server.Close()
		client.SetSnappy(compressed)
		server.SetSnappy(compressed)
		max := DefaultMaxReadFrame
		if limit != 0 {
			max = 2 * int(limit)
			server.SetMaxReadFrame(max)
		}
		for i := 0; i+4 <= len(script) && i < 4*32; i += 4 {
			size := (int(script[i]) | int(script[i+1])<<8 | int(script[i+2])<<16) % (70<<10 + 1)
			sel := script[i+3]
			code, payload := uint64(sel>>1), fuzzPayload(size, sel)
			if err := client.WriteMsg(code, payload); err != nil {
				t.Fatalf("message %d: write: %v", i/4, err)
			}
			wire := payload
			if compressed {
				wire, _ = snappy.Encode(payload)
			}
			frame := len(rlp.AppendUint(nil, code)) + len(wire)

			gotCode, got, err := server.ReadMsg()
			switch {
			case frame > max:
				if !errors.Is(err, ErrFrameTooBig) {
					t.Fatalf("message %d: a %d-byte frame over a %d cap read with err %v", i/4, frame, max, err)
				}
				return
			case compressed && len(payload) > max:
				if !errors.Is(err, snappy.ErrTooLarge) {
					t.Fatalf("message %d: a payload decompressing to %d bytes over a %d cap read with err %v", i/4, len(payload), max, err)
				}
				return
			case err != nil:
				t.Fatalf("message %d: read: %v", i/4, err)
			}
			if gotCode != code || !bytes.Equal(got, payload) {
				t.Fatalf("message %d: read code %d and %d bytes, wrote code %d and %d bytes", i/4, gotCode, len(got), code, len(payload))
			}
			for _, kept := range [][]byte{client.pbuf, client.zbuf, client.rw.wbuf, server.dbuf, server.rw.rbuf} {
				if cap(kept) > maxKeepPayload {
					t.Fatalf("message %d: a %d-byte scratch buffer retained, cap %d", i/4, cap(kept), maxKeepPayload)
				}
			}
		}
	})
}

// fuzzPayload returns size bytes, repetitive (snappy's best case) when
// sel is odd and random (its worst) when even.
func fuzzPayload(size int, sel byte) []byte {
	if sel&1 == 1 {
		return bytes.Repeat([]byte{sel, sel ^ 0x5A, 0x00}, size/3+1)[:size]
	}
	p := make([]byte, size)
	rand.New(rand.NewSource(int64(sel))).Read(p)
	return p
}

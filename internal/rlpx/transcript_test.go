package rlpx

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/crypto/keccak"
)

// seq returns n bytes counting up from start.
func seq(n int, start byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = start + byte(i)
	}
	return b
}

// transcriptSecrets are fixed session keys and MAC seeds standing in
// for a finished handshake. peer mirrors them: its ingress is our
// egress, so it can read what we write.
func transcriptSecrets(peer bool) *secrets {
	s := &secrets{aes: [32]byte(seq(32, 0x10)), mac: [32]byte(seq(32, 0x80))}
	s.egressMAC, s.ingressMAC = keccak.New256Sponge(), keccak.New256Sponge()
	s.egressMAC.Write(seq(32, 0x01))
	s.egressMAC.Write(bytes.Repeat([]byte("auth packet "), 30))
	s.ingressMAC.Write(seq(32, 0x41))
	s.ingressMAC.Write(bytes.Repeat([]byte("ack packet "), 25))
	if peer {
		s.egressMAC, s.ingressMAC = s.ingressMAC, s.egressMAC
	}
	return s
}

// TestFrameTranscript pins the frame layer byte for byte: with fixed
// secrets, a HELLO, a STATUS and a DISCONNECT must produce exactly the
// wire bytes recorded from this repository's first RLPx implementation
// (hash.Hash-based MAC, one digest per step), so no rewrite of the MAC
// or framing can drift from the RLPx spec unnoticed. The three frames
// share one rolling MAC and one CTR stream, so each depends on all
// before it; a mirrored reader then authenticates and decrypts them.
func TestFrameTranscript(t *testing.T) {
	msgs := []struct {
		name    string
		code    uint64
		payload string // RLP, hex
		wire    string // header || header-MAC || frame || frame-MAC, hex
	}{
		{
			"HELLO", 0x00,
			"f86905954e6f646546696e6465722f7472616e736372697074ccc5836574683ec5836574683f82765fb840" +
				"a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecf" +
				"d0d1d2d3d4d5d6d7d8d9dadbdcdddedf",
			"53900e48ba4f964f6e02053976a8035d285167b69783e383193be13c460f6e283c59d65956e01719dcba6647bafb6039" +
				"8a75dc829564457d045f4b66f4385615849eccc57d785ca3890cd23ca2d3d925a530431fb01fa8c8ba8370d22afcdc90" +
				"db3fcb0aeeaf11f5547ba483df3f9c783f6c3c45872b796fd077a89c2440263ab0185f747bd2e7ded1f106c8beeb3ba2" +
				"75250da35c51249656a05d1815753f9b",
		},
		{
			"STATUS", 0x10,
			"f84a3f01850400000000a0d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3" +
				"a0d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3",
			"a941120c482d94611e86cfdfb2cd37c5692a313a86447c6aa811f1769d710ac578f861da54417fffd46d365ea9439694" +
				"18b1e0f48df8158620dc76be2c2dc4725d228f4836118b0328c50e708b392b8411fe9b72888ed849a2bfcc2296852aa9" +
				"2ceeee9991bfcc1e869f7a9193a503eab6687f9753ee9ef710cace2330ef77d7",
		},
		{
			"DISCONNECT", 0x01,
			"c104",
			"e2b2865df3522c62687d5670e15a308d61075a35684d079cb166ea47503f1961db4603dab9cd8ceefc81cb92d83ee5db" +
				"4d78acc00bcd6ab4a52ed89b0450bab0",
		},
	}

	var wire bytes.Buffer
	var w, r frameRW
	w.init(&wire, transcriptSecrets(false))
	for _, m := range msgs {
		payload, _ := hex.DecodeString(m.payload)
		before := wire.Len()
		if err := w.WriteMsg(m.code, payload); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if got := hex.EncodeToString(wire.Bytes()[before:]); got != m.wire {
			t.Errorf("%s wire bytes drifted:\n got %s\nwant %s", m.name, got, m.wire)
		}
	}

	r.init(&wire, transcriptSecrets(true))
	for _, m := range msgs {
		code, payload, err := r.ReadMsg(0)
		if err != nil {
			t.Fatalf("reading %s back: %v", m.name, err)
		}
		if code != m.code || hex.EncodeToString(payload) != m.payload {
			t.Errorf("%s read back as code %#x payload %x", m.name, code, payload)
		}
	}
}

// TestMACStepAllocs: header and frame MAC steps work on state the
// conn owns and allocate nothing.
func TestMACStepAllocs(t *testing.T) {
	var rw frameRW
	rw.init(&bytes.Buffer{}, transcriptSecrets(false))
	header, frame := make([]byte, 16), make([]byte, 96)
	allocs := testing.AllocsPerRun(200, func() {
		rw.em.computeHeaderMAC(header)
		rw.em.computeFrameMAC(frame)
	})
	if allocs != 0 {
		t.Errorf("MAC steps allocate %.1f objects per frame, want 0", allocs)
	}
}

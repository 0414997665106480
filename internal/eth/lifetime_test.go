package eth

import (
	"bytes"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/crypto/secp256k1"
	"repro/internal/devp2p"
	"repro/internal/enode"
	"repro/internal/netpipe"
	"repro/internal/rlp"
	"repro/internal/rlpx"
)

// TestDecodedValuesOutliveThePayload holds the payload-lifetime
// contract: an rlpx.Conn reuses its read scratch for every message, so
// a payload is valid only until the next ReadMsg, and what ReadHello
// and ReadStatus decode must not alias it. A HELLO and a STATUS whose
// Rest tails are the likeliest alias, kept across two later messages
// that overwrite the scratch, must come through unchanged, with
// snappy on and off.
func TestDecodedValuesOutliveThePayload(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	initKey, _ := secp256k1.GenerateKey(rng)
	recipKey, _ := secp256k1.GenerateKey(rng)
	tail := []rlp.RawValue{{0x82, 0xAB, 0xCD}, {0xC3, 0x01, 0x02, 0x03}}
	hello := &devp2p.Hello{
		Version: devp2p.Version, Name: "NodeFinder/lifetime",
		Caps: []devp2p.Cap{{Name: ProtocolName, Version: 63}}, ListenPort: 30303,
		ID: enode.PubkeyID(&initKey.Pub), Rest: tail,
	}
	status := &Status{
		ProtocolVersion: 63, NetworkID: 1, TD: big.NewInt(17_179_869_184),
		BestHash: [32]byte{1, 2, 3}, GenesisHash: [32]byte{4, 5, 6}, Rest: tail,
	}
	for _, compressed := range []bool{false, true} {
		c, s := netpipe.Pair()
		accepted := make(chan *rlpx.Conn, 1)
		go func() {
			conn, err := rlpx.Accept(s, recipKey)
			if err != nil {
				s.Close()
			}
			accepted <- conn
		}()
		sender, err := rlpx.Initiate(c, initKey, enode.PubkeyID(&recipKey.Pub))
		receiver := <-accepted
		if err != nil || receiver == nil {
			t.Fatalf("handshake: %v", err)
		}
		sender.SetSnappy(compressed)
		receiver.SetSnappy(compressed)

		// Everything is buffered in the pipe, so the sender can run
		// ahead: the two filler messages are longer than the HELLO and
		// differ from it in every byte.
		filler := bytes.Repeat([]byte{0xEE}, 400)
		for _, send := range []func() error{
			func() error { return devp2p.SendHello(sender, hello) },
			func() error { return SendStatus(sender, devp2p.BaseProtocolLength, status) },
			func() error { return sender.WriteMsg(0x05, filler) },
			func() error { return sender.WriteMsg(0x06, filler) },
		} {
			if err := send(); err != nil {
				t.Fatal(err)
			}
		}
		gotHello, err := devp2p.ReadHello(receiver)
		if err != nil {
			t.Fatal(err)
		}
		gotStatus, err := ReadStatus(receiver, devp2p.BaseProtocolLength)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, _, err := receiver.ReadMsg(); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(gotHello, hello) {
			t.Errorf("snappy %v: HELLO changed under later reads:\n got %+v\nwant %+v", compressed, gotHello, hello)
		}
		if !reflect.DeepEqual(gotStatus, status) {
			t.Errorf("snappy %v: STATUS changed under later reads:\n got %+v\nwant %+v", compressed, gotStatus, status)
		}
		sender.Close()
		receiver.Close()
	}
}

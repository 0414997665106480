package devp2p

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/rlp"
)

// oneMsgRW replays a single framed message, as if a peer sent
// exactly one thing and hung up.
type oneMsgRW struct {
	code    uint64
	payload []byte
	read    bool
}

func (rw *oneMsgRW) ReadMsg() (uint64, []byte, error) {
	if rw.read {
		panic("fuzz target read twice")
	}
	rw.read = true
	return rw.code, rw.payload, nil
}

func (rw *oneMsgRW) WriteMsg(code uint64, payload []byte) error { return nil }

// FuzzReadHello feeds arbitrary payloads through the HELLO parse
// path — the first untrusted message of every connection the crawler
// makes, millions of times per crawl. Invariants: no panic, oversized
// payloads always rejected, and an accepted HELLO re-encodes. The
// serving side's ReadHelloCaps refuses exactly what ReadHello refuses
// and keeps of an accepted HELLO its version, port, ID and the known
// caps it lists.
func FuzzReadHello(f *testing.F) {
	hello := &Hello{
		Version:    Version,
		Name:       "Geth/v1.8.11-stable/linux-amd64/go1.10",
		Caps:       []Cap{{"eth", 62}, {"eth", 63}},
		ListenPort: 30303,
	}
	enc, err := rlp.EncodeToBytes(hello)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(HelloMsg), enc)
	f.Add(uint64(HelloMsg), []byte{})
	f.Add(uint64(HelloMsg), []byte{0xC0})
	f.Add(uint64(HelloMsg), []byte{0xBF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(uint64(DiscMsg), []byte{0xC1, 0x04})
	f.Add(uint64(DiscMsg), []byte{0x04})
	f.Add(uint64(PingMsg), []byte{0xC0})

	f.Add(uint64(HelloMsg), []byte{0xC7, 0x05, 0x80, 0xC3, 0xC2, 0x80, 0x80, 0x80, 0x80})

	known := []Cap{{"eth", 62}, {"eth", 63}, {"les", 2}, {"", 0}}
	f.Fuzz(func(t *testing.T, code uint64, payload []byte) {
		h, err := ReadHello(&oneMsgRW{code: code, payload: payload})
		lean := Hello{Name: "stale", Caps: make([]Cap, 0, 1), Rest: []rlp.RawValue{{0x80}}}
		errLean := ReadHelloCaps(&oneMsgRW{code: code, payload: payload}, &lean, known)
		if (err == nil) != (errLean == nil) {
			t.Fatalf("ReadHello err %v, ReadHelloCaps err %v", err, errLean)
		}
		if err != nil {
			return
		}
		var want []Cap
		for _, k := range known {
			if slices.Contains(h.Caps, k) {
				want = append(want, k)
			}
		}
		if lean.Version != h.Version || lean.ListenPort != h.ListenPort || lean.ID != h.ID ||
			lean.Name != "" || lean.Rest != nil || !slices.Equal(sortedCaps(lean.Caps), sortedCaps(want)) {
			t.Fatalf("ReadHelloCaps kept %+v of %+v", lean, h)
		}
		if code != HelloMsg {
			t.Fatalf("non-hello code %#x yielded a hello", code)
		}
		if len(payload) > MaxHelloSize {
			t.Fatalf("oversized hello accepted: %d bytes", len(payload))
		}
		if _, err := rlp.EncodeToBytes(h); err != nil {
			t.Fatalf("accepted hello does not re-encode: %v", err)
		}
	})
}

// FuzzDecodeDisconnect pins DecodeDisconnect's total behavior: any
// payload maps to SOME reason, never a panic — hostile peers love
// sending garbage right before closing.
func FuzzDecodeDisconnect(f *testing.F) {
	f.Add([]byte{})           // legacy empty disconnect
	f.Add([]byte{0x04})       // bare reason byte
	f.Add([]byte{0xC1, 0x04}) // canonical list form
	f.Add([]byte{0xC0})       // empty list
	f.Add([]byte{0xC2, 0x81, 0x10})
	f.Add([]byte{0xBF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, payload []byte) {
		r := DecodeDisconnect(payload)
		// The reason must be render-able (String is a total function)
		// and classifiable by the taxonomy.
		_ = r.String()
		_ = DisconnectError{r}.Error()
	})
}

// sortedCaps orders caps by name, then version.
func sortedCaps(caps []Cap) []Cap {
	caps = slices.Clone(caps)
	slices.SortFunc(caps, func(a, b Cap) int {
		return cmp.Or(cmp.Compare(a.Name, b.Name), cmp.Compare(a.Version, b.Version))
	})
	return caps
}

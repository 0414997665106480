package eth

import (
	"bytes"
	"math/big"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/rlp"
)

// The serving side's and the DAO check's lean readers against the
// decoders they replaced: over the same payloads, SkipStatus refuses
// exactly what ReadStatus refuses, and VerifyDAOFork gives the verdict
// ReadHeaders and SupportsDAOFork give, refusing the same bodies.

// leanInputs returns the payloads both differentials read: the rlp
// fuzz corpus (each input whole and without its selector byte), the
// hostile shapes of the wire verdict test, and every truncation of and
// a set of byte substitutions in each of valid.
func leanInputs(t *testing.T, valid ...[]byte) [][]byte {
	t.Helper()
	var in [][]byte
	files, err := filepath.Glob(filepath.Join("..", "rlp", "testdata", "fuzz", "*", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no rlp fuzz corpus: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			lit, ok := strings.CutPrefix(line, "[]byte(")
			if !ok {
				continue
			}
			data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			in = append(in, []byte(data), []byte(data)[min(1, len(data)):])
		}
	}
	for _, hex := range []string{
		"", "00", "01", "8100", "817F", "81FF", "820011", "B800", "B90037", "F80102",
		"C0", "C101", "C2820505", "83", "C3", "84646F67", "83646F67",
		"89FFFFFFFFFFFFFFFFFF", "820100", "0105", "C28080", "C1C0", "BFFFFFFFFFFFFFFFFF",
	} {
		var data []byte
		for i := 0; i+1 < len(hex); i += 2 {
			b, _ := strconv.ParseUint(hex[i:i+2], 16, 8)
			data = append(data, byte(b))
		}
		in = append(in, data)
	}
	for _, v := range valid {
		in = append(in, v, append(bytes.Clone(v), 0x80))
		for n := range v {
			in = append(in, v[:n])
		}
		for i := range v {
			for _, b := range []byte{0x00, 0x7F, 0x80, 0xB8, 0xC0, 0xF8, 0xFF, v[i] ^ 0x01} {
				if b != v[i] {
					m := bytes.Clone(v)
					m[i] = b
					in = append(in, m)
				}
			}
		}
	}
	return in
}

func TestSkipStatusRefusesWhatReadStatusRefuses(t *testing.T) {
	var valid [][]byte
	for _, st := range []*Status{
		testStatus(1, chain.MainnetGenesisHash),
		{ProtocolVersion: 62, TD: new(big.Int), Rest: []rlp.RawValue{{0x05}, {0xC1, 0x80}}},
	} {
		enc, err := rlp.EncodeToBytes(st)
		if err != nil {
			t.Fatal(err)
		}
		valid = append(valid, enc)
	}
	accepted := 0
	for _, payload := range leanInputs(t, valid...) {
		a, b := newChanRW()
		b.WriteMsg(offset+StatusMsg, payload) //nolint:errcheck
		b.WriteMsg(offset+StatusMsg, payload) //nolint:errcheck
		_, errFull := ReadStatus(a, offset)
		errLean := SkipStatus(a, offset)
		if (errFull == nil) != (errLean == nil) {
			t.Fatalf("status %x: ReadStatus err %v, SkipStatus err %v", payload, errFull, errLean)
		}
		if errFull == nil {
			accepted++
		}
	}
	if accepted < len(valid) {
		t.Fatalf("only %d inputs accepted; the valid ones are %d", accepted, len(valid))
	}
}

func TestVerifyDAOForkMatchesReadHeaders(t *testing.T) {
	pro := testChain(chain.DAOForkBlock+1, true)(chain.DAOForkBlock)
	classic := testChain(chain.DAOForkBlock+1, false)(chain.DAOForkBlock)
	odd := *pro
	odd.Extra = append(bytes.Clone(chain.DAOForkBlockExtra), 0)
	var valid [][]byte
	for _, hs := range [][]*chain.Header{{}, {pro}, {classic}, {pro, classic}, {classic, pro}, {&odd}} {
		enc, err := rlp.EncodeToBytes(hs)
		if err != nil {
			t.Fatal(err)
		}
		valid = append(valid, enc)
	}
	stances := map[DAOForkSupport]int{}
	for _, payload := range leanInputs(t, valid...) {
		a, b := newChanRW()
		b.WriteMsg(offset+BlockHeadersMsg, payload) //nolint:errcheck
		b.WriteMsg(offset+BlockHeadersMsg, payload) //nolint:errcheck
		want, errOld := DAOForkUnknown, error(nil)
		switch hs, err := ReadHeaders(a, offset); {
		case err != nil:
			errOld = err
		case len(hs) > 0 && hs[0].SupportsDAOFork():
			want = DAOForkSupported
		case len(hs) > 0:
			want = DAOForkOpposed
		}
		got, errNew := VerifyDAOFork(a, offset)
		if (errOld == nil) != (errNew == nil) || got != want {
			t.Fatalf("headers %x: ReadHeaders gave %v (err %v), VerifyDAOFork %v (err %v)", payload, want, errOld, got, errNew)
		}
		if errNew == nil {
			stances[got]++
		}
	}
	if len(stances) != 3 {
		t.Fatalf("accepted stances %v: want all three among the inputs", stances)
	}
}

package mlog

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// oracleLine is what the log wrote before AppendJSON: one
// json.Encoder.Encode, or nothing when it fails.
func oracleLine(t testing.TB, e *Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(e); err != nil {
		return nil
	}
	return buf.Bytes()
}

// checkAgainstOracle appends e behind a prefix, so that a failed
// record is also seen to leave the bytes before it alone.
func checkAgainstOracle(t testing.TB, e *Entry) {
	t.Helper()
	const prefix = "prefix"
	got := e.AppendJSON([]byte(prefix))
	if !bytes.HasPrefix(got, []byte(prefix)) {
		t.Fatalf("AppendJSON overwrote the bytes before it: %q", got)
	}
	got = got[len(prefix):]
	if want := oracleLine(t, e); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from encoding/json\n got: %q\nwant: %q", got, want)
	}
}

func TestAppendJSONMatchesEncoder(t *testing.T) {
	reason := uint64(4)
	hostile := "<script>&\"\\\x00\x01\b\f\n\r\t\x1f\x7f é \u2028\u2029 \xff\xc3 \U0001F600"
	cases := []struct {
		name string
		e    Entry
	}{
		{"zero entry", Entry{}},
		{"sample", *sampleEntry(7)},
		{"failed dial", Entry{
			Time: time.Date(2018, 4, 18, 1, 2, 3, 400, time.UTC), NodeID: "ab", IP: "10.0.0.1",
			Port: 30303, ConnType: ConnStaticDial, LatencyUS: -1, DurationUS: 15_000_000,
			Err: "connect: connection refused"}},
		{"nil caps", Entry{Hello: &HelloInfo{Version: 5, ClientName: "Geth"}}},
		{"empty caps", Entry{Hello: &HelloInfo{Caps: []string{}}}},
		{"empty cap name", Entry{Hello: &HelloInfo{Caps: []string{"", "eth/63"}}}},
		{"status without best block", Entry{Status: &StatusInfo{ProtocolVersion: 63, NetworkID: 1, TD: "17"}}},
		{"disconnect only", Entry{DisconnectReason: &reason}},
		{"hostile strings", Entry{
			NodeID: hostile, IP: hostile, ConnType: ConnType(hostile), Err: hostile, DAOFork: hostile,
			Hello:  &HelloInfo{ClientName: hostile, Caps: []string{hostile, "<>"}},
			Status: &StatusInfo{TD: hostile, BestHash: hostile, GenesisHash: hostile, BestBlock: 1}}},
		{"every byte", Entry{Hello: &HelloInfo{ClientName: everyByte()}}},
		{"max numbers", Entry{Port: 65535, LatencyUS: -1 << 63, DurationUS: 1<<63 - 1,
			Hello:  &HelloInfo{Version: 1<<64 - 1, ListenPort: 1<<64 - 1},
			Status: &StatusInfo{ProtocolVersion: 1<<32 - 1, NetworkID: 1<<64 - 1, BestBlock: 1<<64 - 1}}},
		{"trailing-zero nanos", Entry{Time: time.Date(2018, 4, 18, 0, 0, 0, 120_000_000, time.UTC)}},
		{"zone offset", Entry{Time: time.Date(2018, 4, 18, 0, 0, 0, 1, time.FixedZone("x", -(23*3600+59*60)))}},
		{"local zone name", Entry{Time: time.Date(2018, 4, 18, 0, 0, 0, 0, time.FixedZone("CEST", 2*3600))}},
		{"year 0", Entry{Time: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)}},
		{"year 9999", Entry{Time: time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC)}},
		{"year 10000 is dropped", Entry{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}},
		{"year -1 is dropped", Entry{Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)}},
		{"zone 24h is dropped", Entry{Time: time.Date(2018, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))}},
		{"zone 100h is dropped", Entry{Time: time.Date(2018, 1, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkAgainstOracle(t, &tc.e) })
	}
}

// everyByte holds every byte value once, in order, so every entry of
// the escape table is hit.
func everyByte() string {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i)
	}
	return string(b)
}

// TestWriterDropsUnencodableRecord: a record encoding/json would have
// failed on leaves no partial line in the log, and the next record
// still goes out.
func TestWriterDropsUnencodableRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Record(&Entry{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), NodeID: "bad"})
	w.Record(sampleEntry(1))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := oracleLine(t, sampleEntry(1)); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("log = %q, want only %q", buf.Bytes(), want)
	}
}

// TestWriterRecordAllocatesNothing: once its buffer has grown, the
// Writer renders a record without a heap allocation.
func TestWriterRecordAllocatesNothing(t *testing.T) {
	w := NewWriter(io.Discard)
	e := sampleEntry(3)
	w.Record(e)
	if n := testing.AllocsPerRun(100, func() { w.Record(e) }); n != 0 {
		t.Fatalf("Writer.Record allocates %.1f objects per record, want 0", n)
	}
}

// FuzzAppendJSON is the differential that holds the log format:
// AppendJSON must write what encoding/json writes for any entry —
// hostile client names, caps and errors, nil against empty caps,
// absent sub-records, and times outside what RFC 3339 can carry.
func FuzzAppendJSON(f *testing.F) {
	f.Add(int64(1524009600), int64(0), int32(0), uint8(0xff), "abcd", "10.0.0.1", "dynamic-dial",
		"", "Geth/v1.8.11-stable/linux-amd64/go1.10", "eth/62,eth/63", "123456", "aa", "d4e5", "supported",
		uint16(30303), int64(42000), int64(900000), uint64(5), uint64(30303), uint64(1), uint64(5500000), uint64(4), uint32(63))
	f.Add(int64(-62167219201), int64(999999999), int32(-3600), uint8(0x02), "< >", "\xff", "",
		"rlpx: \x00\b\f", "", "", "", "", "", "", uint16(0), int64(-1), int64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint32(0))
	f.Add(int64(253402300800), int64(1), int32(86400), uint8(0x0f), "\"\\", "", "incoming",
		"", "a b", "", "", "", "", "", uint16(1), int64(1), int64(1), uint64(1), uint64(1), uint64(1), uint64(0), uint64(1), uint32(1))
	f.Fuzz(func(t *testing.T, sec, nsec int64, zone int32, flags uint8,
		nodeID, ip, connType, errS, client, caps, td, hash, genesis, dao string,
		port uint16, lat, dur int64, ver, listen, netID, best, reason uint64, pv uint32) {
		e := &Entry{
			Time:       time.Unix(sec, nsec).In(time.FixedZone("", int(zone))),
			NodeID:     nodeID,
			IP:         ip,
			Port:       port,
			ConnType:   ConnType(connType),
			LatencyUS:  lat,
			DurationUS: dur,
			Err:        errS,
			DAOFork:    dao,
		}
		if flags&1 != 0 {
			e.Hello = &HelloInfo{Version: ver, ClientName: client, ListenPort: listen}
			switch {
			case flags&2 != 0: // nil caps: null
			case caps == "":
				e.Hello.Caps = []string{}
			default:
				e.Hello.Caps = strings.Split(caps, ",")
			}
		}
		if flags&4 != 0 {
			e.Status = &StatusInfo{ProtocolVersion: pv, NetworkID: netID, TD: td,
				BestHash: hash, GenesisHash: genesis, BestBlock: best}
		}
		if flags&8 != 0 {
			e.DisconnectReason = &reason
		}
		checkAgainstOracle(t, e)
	})
}

package census

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/nodefinder/mlog"
	"repro/internal/simclock"
)

// marshalLast is ?last=N as the handler used to serve it: the newest N
// points marshaled whole, per request.
func marshalLast(s *Snapshot, ep, last int) []byte {
	points := s.Points
	if last < len(points) {
		points = points[len(points)-last:]
	}
	if ep == epSeriesChurn {
		return marshal(churnPayload{Epoch: s.Epoch, Start: s.Start, IntervalSeconds: s.Interval.Seconds(), Points: points})
	}
	arrivals := make([]arrivalPoint, len(points))
	for i, pt := range points {
		arrivals[i] = arrivalPoint{Epoch: pt.Epoch, Start: pt.Start, Arrived: pt.Arrived, Alive: pt.Alive}
	}
	return marshal(arrivalsPayload{Epoch: s.Epoch, Points: arrivals})
}

// TestSeriesLastMatchesMarshal: for both series, at every publish from
// epoch 0 (nothing sealed, the churn points say null) on, with and
// without MaxPoints trimming the served windows, ?last=N for every N
// from 0 to one past the series length is byte for byte the body the
// per-request marshal wrote.
func TestSeriesLastMatchesMarshal(t *testing.T) {
	start := time.Date(2018, 4, 18, 0, 0, 0, 0, time.UTC)
	for _, maxPoints := range []int{0, 3} {
		clk := simclock.NewSimulated(start)
		d := NewDaemon(DaemonConfig{Clock: clk, MaxPoints: maxPoints})
		h := NewHandler(ServerConfig{Source: d})
		d.Start()
		for epoch := 0; epoch < 8; epoch++ {
			s := d.Current()
			for ep, path := range map[int]string{epSeriesChurn: "/v1/series/churn", epSeriesArrivals: "/v1/series/arrivals"} {
				for last := 0; last <= len(s.Points)+1; last++ {
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, httptest.NewRequest("GET", path+"?last="+strconv.Itoa(last), nil))
					if want := marshalLast(s, ep, last); rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), want) {
						t.Fatalf("MaxPoints %d, epoch %d, %s?last=%d: status %d\n--- served ---\n%s--- marshaled ---\n%s",
							maxPoints, s.Epoch, path, last, rr.Code, rr.Body.Bytes(), want)
					}
					if got, want := rr.Header().Get("Content-Length"), strconv.Itoa(rr.Body.Len()); got != want {
						t.Fatalf("%s?last=%d: Content-Length %s for a %s-byte body", path, last, got, want)
					}
				}
			}
			for i := 0; i <= epoch; i++ {
				d.Record(&mlog.Entry{Time: clk.Now(), NodeID: fmt.Sprintf("n%d-%d", epoch, i), IP: "10.0.0.1", ConnType: mlog.ConnDynamicDial,
					Hello: &mlog.HelloInfo{Version: 5, ClientName: "Geth/v1.8.11-stable", Caps: []string{"eth/63"}}})
			}
			clk.Advance(DefaultInterval)
		}
		d.Stop()
		if n := len(d.Current().Points); n == 0 || maxPoints > 0 && n != maxPoints {
			t.Fatalf("MaxPoints %d: the last snapshot has %d points", maxPoints, n)
		}
	}
}

// fixedSource serves one snapshot.
type fixedSource struct{ s *Snapshot }

func (f fixedSource) Current() *Snapshot { return f.s }

// FuzzAppendNode holds the /v1/nodes/{id} body to the marshal it
// replaced: json.MarshalIndent(ns, "", "  ") and a newline, or, where
// that fails, the 500 it answered with. The appender must also leave
// the bytes before it alone, and append nothing when it fails.
func FuzzAppendNode(f *testing.F) {
	first := time.Date(2018, 4, 18, 0, 5, 0, 0, time.UTC).Unix()
	hostile := "<script>&\"\\\x00\x1f\x7f \xe2\x80\xa8 \xe2\x80\xa9 \xff\xc3 \xf0\x9f\x98\x80"
	f.Add("aa", "52.1.2.3", "Geth/v1.8.11-stable", "eth/63", uint64(1), 1.5, first, first+1800, 0, uint8(0))
	f.Add(hostile, hostile, hostile, hostile+",<>&", uint64(0), 0.0, first, first, 0, uint8(0xff))
	f.Add("", "", "", "", uint64(math.MaxUint64), 1e-7, int64(0), int64(-1), 5*3600+1800, uint8(1)) // nil caps
	f.Add("bb", "", "<>&", "", uint64(3), 1e21, first, first, -23*3600, uint8(2))                   // empty caps
	f.Add("cc", "::1", "", "a,b,", uint64(0), 0.000123, first, first, 24*3600, uint8(4))            // offset MarshalJSON rejects
	f.Add("dd", "", "", "", uint64(0), 8.2, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), first, 0, uint8(8))
	f.Fuzz(func(t *testing.T, id, ip, client, caps string, network uint64, latency float64, firstSeen, lastSeen int64, offset int, flags uint8) {
		ns := NodeSummary{
			ID: id, IP: ip, Country: client, AS: ip, Cloud: flags&1 != 0, Responsive: flags&4 != 0,
			FirstSeen: time.Unix(firstSeen, int64(flags)*1001).In(time.FixedZone("", offset)), LastSeen: time.Unix(lastSeen, 0).UTC(),
			Client: client, NetworkID: network, GenesisHash: caps, BestBlock: network / 3,
			DAOFork: id, LatencyMS: latency, Mainnet: flags&8 != 0, Entries: int(int64(network)),
		}
		switch {
		case caps != "":
			ns.Caps = strings.Split(caps, ",")
		case flags&2 != 0:
			ns.Caps = []string{}
		}

		want, err := json.MarshalIndent(&ns, "", "  ")
		const prefix = "prefix"
		got, ok := ns.appendJSON([]byte(prefix))
		switch {
		case !bytes.HasPrefix(got, []byte(prefix)):
			t.Fatalf("appendJSON overwrote the bytes before it: %q", got)
		case ok != (err == nil):
			t.Fatalf("appendJSON ok = %v, MarshalIndent error = %v", ok, err)
		case !ok && len(got) != len(prefix):
			t.Fatalf("a failed appendJSON appended %q", got[len(prefix):])
		case ok && !bytes.Equal(got[len(prefix):], append(want, '\n')):
			t.Fatalf("appendJSON differs from MarshalIndent\n got: %q\nwant: %q", got[len(prefix):], want)
		}

		snap := &Snapshot{ids: []string{"x"}, seqs: []int{0}, recs: []*record{{NodeSummary: ns}}}
		snap.setHeaders()
		rr := httptest.NewRecorder()
		NewHandler(ServerConfig{Source: fixedSource{snap}}).ServeHTTP(rr, httptest.NewRequest("GET", "/v1/nodes/x", nil))
		code, body := http.StatusOK, append(want, '\n')
		if err != nil {
			code, body = http.StatusInternalServerError, []byte(`{"error":"encode failed"}`+"\n")
		}
		if rr.Code != code || !bytes.Equal(rr.Body.Bytes(), body) {
			t.Fatalf("served %d %q, want %d %q", rr.Code, rr.Body.Bytes(), code, body)
		}
	})
}

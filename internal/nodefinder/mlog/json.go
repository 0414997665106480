package mlog

import (
	"strconv"

	"repro/internal/jsonenc"
)

// AppendJSON appends e's JSON line — the bytes json.NewEncoder(w).Encode(e)
// writes, trailing newline included — to b and returns the extended
// slice. It neither reflects nor allocates beyond growing b.
//
// A Time that time.Time.MarshalJSON rejects (a year outside 0–9999, or
// a zone offset of 24 hours or more) makes Encode fail and write
// nothing; AppendJSON then returns b unchanged, so the record is
// dropped exactly as before.
func (e *Entry) AppendJSON(b []byte) []byte {
	n0 := len(b)
	b = append(b, `{"time":"`...)
	var ok bool
	if b, ok = jsonenc.AppendTime(b, e.Time); !ok {
		return b[:n0]
	}
	b = append(b, `","nodeID":`...)
	b = jsonenc.AppendString(b, e.NodeID)
	b = append(b, `,"ip":`...)
	b = jsonenc.AppendString(b, e.IP)
	b = append(b, `,"port":`...)
	b = strconv.AppendUint(b, uint64(e.Port), 10)
	b = append(b, `,"connType":`...)
	b = jsonenc.AppendString(b, string(e.ConnType))
	b = append(b, `,"latencyUS":`...)
	b = strconv.AppendInt(b, e.LatencyUS, 10)
	b = append(b, `,"durationUS":`...)
	b = strconv.AppendInt(b, e.DurationUS, 10)
	if e.Err != "" {
		b = append(b, `,"err":`...)
		b = jsonenc.AppendString(b, e.Err)
	}
	if h := e.Hello; h != nil {
		b = append(b, `,"hello":{"version":`...)
		b = strconv.AppendUint(b, h.Version, 10)
		b = append(b, `,"clientName":`...)
		b = jsonenc.AppendString(b, h.ClientName)
		b = append(b, `,"caps":`...)
		if h.Caps == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, c := range h.Caps {
				if i > 0 {
					b = append(b, ',')
				}
				b = jsonenc.AppendString(b, c)
			}
			b = append(b, ']')
		}
		b = append(b, `,"listenPort":`...)
		b = strconv.AppendUint(b, h.ListenPort, 10)
		b = append(b, '}')
	}
	if s := e.Status; s != nil {
		b = append(b, `,"status":{"protocolVersion":`...)
		b = strconv.AppendUint(b, uint64(s.ProtocolVersion), 10)
		b = append(b, `,"networkID":`...)
		b = strconv.AppendUint(b, s.NetworkID, 10)
		b = append(b, `,"td":`...)
		b = jsonenc.AppendString(b, s.TD)
		b = append(b, `,"bestHash":`...)
		b = jsonenc.AppendString(b, s.BestHash)
		b = append(b, `,"genesisHash":`...)
		b = jsonenc.AppendString(b, s.GenesisHash)
		if s.BestBlock != 0 {
			b = append(b, `,"bestBlock":`...)
			b = strconv.AppendUint(b, s.BestBlock, 10)
		}
		b = append(b, '}')
	}
	if e.DisconnectReason != nil {
		b = append(b, `,"disconnectReason":`...)
		b = strconv.AppendUint(b, *e.DisconnectReason, 10)
	}
	if e.DAOFork != "" {
		b = append(b, `,"daoFork":`...)
		b = jsonenc.AppendString(b, e.DAOFork)
	}
	return append(b, "}\n"...)
}

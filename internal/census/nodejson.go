package census

import (
	"strconv"

	"repro/internal/jsonenc"
)

// appendJSON appends the /v1/nodes/{id} body for ns — the bytes
// json.MarshalIndent(ns, "", "  ") returns, and a newline — to b,
// without reflection. It reports false, with b unchanged, for a summary
// MarshalIndent rejects: a time outside what time.Time.MarshalJSON
// accepts, or a latency that is not finite.
func (ns *NodeSummary) appendJSON(b []byte) ([]byte, bool) {
	n0 := len(b)
	b = append(b, "{\n  \"id\": "...)
	b = jsonenc.AppendString(b, ns.ID)
	b = appendStringField(b, "ip", ns.IP)
	b = appendStringField(b, "country", ns.Country)
	b = appendStringField(b, "as", ns.AS)
	if ns.Cloud {
		b = append(b, ",\n  \"cloud\": true"...)
	}
	b = append(b, ",\n  \"responsive\": "...)
	b = strconv.AppendBool(b, ns.Responsive)
	b = append(b, ",\n  \"firstSeen\": \""...)
	var ok bool
	if b, ok = jsonenc.AppendTime(b, ns.FirstSeen); !ok {
		return b[:n0], false
	}
	b = append(b, "\",\n  \"lastSeen\": \""...)
	if b, ok = jsonenc.AppendTime(b, ns.LastSeen); !ok {
		return b[:n0], false
	}
	b = append(b, '"')
	b = appendStringField(b, "client", ns.Client)
	if len(ns.Caps) > 0 {
		b = append(b, ",\n  \"caps\": ["...)
		for i, c := range ns.Caps {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = jsonenc.AppendString(b, c)
		}
		b = append(b, "\n  ]"...)
	}
	if ns.NetworkID != 0 {
		b = append(b, ",\n  \"networkID\": "...)
		b = strconv.AppendUint(b, ns.NetworkID, 10)
	}
	b = appendStringField(b, "genesisHash", ns.GenesisHash)
	if ns.BestBlock != 0 {
		b = append(b, ",\n  \"bestBlock\": "...)
		b = strconv.AppendUint(b, ns.BestBlock, 10)
	}
	b = appendStringField(b, "daoFork", ns.DAOFork)
	if ns.LatencyMS != 0 {
		b = append(b, ",\n  \"latencyMS\": "...)
		if b, ok = jsonenc.AppendFloat(b, ns.LatencyMS); !ok {
			return b[:n0], false
		}
	}
	b = append(b, ",\n  \"mainnet\": "...)
	b = strconv.AppendBool(b, ns.Mainnet)
	b = append(b, ",\n  \"entries\": "...)
	b = strconv.AppendInt(b, int64(ns.Entries), 10)
	return append(b, "\n}\n"...), true
}

// appendStringField appends an omitempty string field of a NodeSummary.
func appendStringField(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	b = append(b, ",\n  \""...)
	b = append(b, key...)
	b = append(b, "\": "...)
	return jsonenc.AppendString(b, v)
}

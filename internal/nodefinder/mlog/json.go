package mlog

import (
	"strconv"
	"time"
	"unicode/utf8"
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
	if b, ok = appendTime(b, e.Time); !ok {
		return b[:n0]
	}
	b = append(b, `","nodeID":`...)
	b = appendString(b, e.NodeID)
	b = append(b, `,"ip":`...)
	b = appendString(b, e.IP)
	b = append(b, `,"port":`...)
	b = strconv.AppendUint(b, uint64(e.Port), 10)
	b = append(b, `,"connType":`...)
	b = appendString(b, string(e.ConnType))
	b = append(b, `,"latencyUS":`...)
	b = strconv.AppendInt(b, e.LatencyUS, 10)
	b = append(b, `,"durationUS":`...)
	b = strconv.AppendInt(b, e.DurationUS, 10)
	if e.Err != "" {
		b = append(b, `,"err":`...)
		b = appendString(b, e.Err)
	}
	if h := e.Hello; h != nil {
		b = append(b, `,"hello":{"version":`...)
		b = strconv.AppendUint(b, h.Version, 10)
		b = append(b, `,"clientName":`...)
		b = appendString(b, h.ClientName)
		b = append(b, `,"caps":`...)
		if h.Caps == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, c := range h.Caps {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendString(b, c)
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
		b = appendString(b, s.TD)
		b = append(b, `,"bestHash":`...)
		b = appendString(b, s.BestHash)
		b = append(b, `,"genesisHash":`...)
		b = appendString(b, s.GenesisHash)
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
		b = appendString(b, e.DAOFork)
	}
	return append(b, "}\n"...)
}

// appendTime is time.Time.MarshalJSON without the quotes or the
// allocation: it appends t in RFC 3339 with nanoseconds, and reports
// false for the timestamps MarshalJSON rejects, by the same checks on
// the same bytes.
func appendTime(b []byte, t time.Time) ([]byte, bool) {
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	switch {
	case b[n0+len("9999")] != '-': // year must be exactly 4 digits wide
		return b, false
	case b[len(b)-1] != 'Z':
		c := b[len(b)-len("Z07:00")]
		hh := b[len(b)-len("07:00"):]
		if '0' <= c && c <= '9' || 10*(hh[0]-'0')+(hh[1]-'0') >= 24 {
			return b, false
		}
	}
	return b, true
}

// escMultibyte marks, in strEsc, a byte at or above utf8.RuneSelf.
const escMultibyte = 1

// strEsc is encoding/json's HTML-escaping string table, one lookup
// per byte: 0 copies the byte as it is; a letter is its two-byte
// escape (\" \\ \b \f \n \r \t); 'u' is a \u00XX escape, for the other
// control characters and < > &; escMultibyte sends the byte to the
// UTF-8 decoder.
var strEsc = func() (t [256]byte) {
	for c := 0; c < 0x20; c++ {
		t[c] = 'u'
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	t['"'], t['\\'] = '"', '\\'
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = escMultibyte
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on: invalid UTF-8 becomes \ufffd, and
// U+2028 and U+2029 are escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		esc := strEsc[s[i]]
		if esc == 0 {
			i++
			continue
		}
		if esc == escMultibyte {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(b, s[start:i]...)
				b = append(b, `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				b = append(b, s[start:i]...)
				b = append(b, `\u202`...)
				b = append(b, hexDigits[r&0xf])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		b = append(b, s[start:i]...)
		if esc == 'u' {
			b = append(b, '\\', 'u', '0', '0', hexDigits[s[i]>>4], hexDigits[s[i]&0xf])
		} else {
			b = append(b, '\\', esc)
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

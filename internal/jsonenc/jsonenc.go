// Package jsonenc appends JSON values byte for byte as encoding/json
// writes them, without reflection and without allocating beyond
// growing the destination slice. The measurement log's record encoder
// and the census's per-node body are built from these, and each is held
// to encoding/json by a differential fuzz target.
package jsonenc

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendTime is time.Time.MarshalJSON without the quotes or the
// allocation: it appends t in RFC 3339 with nanoseconds, and reports
// false for the timestamps MarshalJSON rejects (a year outside
// 0–9999, or a zone offset of 24 hours or more), by the same checks on
// the same bytes.
func AppendTime(b []byte, t time.Time) ([]byte, bool) {
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

// AppendFloat appends f as encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07). It reports false for NaN and ±Inf, which encoding/json
// rejects.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
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

// AppendString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on: invalid UTF-8 becomes \ufffd, and
// U+2028 and U+2029 are escaped.
func AppendString(b []byte, s string) []byte {
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

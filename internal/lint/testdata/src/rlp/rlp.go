// Package rlp is a codec stub for the wiresym golden fixtures: the
// analyzer recognizes these entry points by package path and name, so
// only the signatures matter here.
package rlp

import "io"

// EncodeToBytes serializes v.
func EncodeToBytes(v interface{}) ([]byte, error) { return nil, nil }

// Encode serializes v to w.
func Encode(w io.Writer, v interface{}) error { return nil }

// DecodeBytes parses b into v.
func DecodeBytes(b []byte, v interface{}) error { return nil }

// Stream is what a custom DecodeRLP reads from.
type Stream struct{}

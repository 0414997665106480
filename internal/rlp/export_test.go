package rlp

import "reflect"

// The reference codec of oracle_test.go, for the wire-type tests in
// package rlp_test.
var (
	OracleEncodeToBytes = oracleEncodeToBytes
	OracleDecodeBytes   = oracleDecodeBytes
)

// OracleLeaf makes the reference codec code values of typ with their
// own AppendRLP and DecodeRLP instead of walking their fields.
func OracleLeaf(typ reflect.Type) { oracleLeaves[typ] = true }

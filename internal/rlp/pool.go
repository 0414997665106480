package rlp

import (
	"bytes"
	"sync"
)

// Pooled codec scratch. Encode buffers and the streams handed to
// custom DecodeRLP implementations are recycled through sync.Pool so
// steady-state wire traffic allocates only the caller-visible output
// (the encoded []byte, the decoded values). Oversized buffers are
// dropped on return instead of pinning their backing arrays in the
// pool.

// maxPooledBuf caps the retained capacity of a recycled encode
// buffer. The wire messages this package exists for (HELLO, STATUS,
// discv4 packets) are well under 4 KiB; a one-off giant encode should
// not park megabytes in the pool.
const maxPooledBuf = 1 << 17

var encBufPool = sync.Pool{New: func() any { return new(encBuffer) }}

func getEncBuffer() *encBuffer {
	buf := encBufPool.Get().(*encBuffer)
	buf.reset()
	return buf
}

func putEncBuffer(buf *encBuffer) {
	if cap(buf.str) > maxPooledBuf {
		return
	}
	encBufPool.Put(buf)
}

// pooledStream bundles a Stream with its bytes.Reader so custom
// DecodeRLP implementations run without per-call allocations for the
// decoder machinery itself.
type pooledStream struct {
	s  Stream
	br bytes.Reader
}

var streamPool = sync.Pool{New: func() any { return new(pooledStream) }}

func getStream(b []byte) *pooledStream {
	ps := streamPool.Get().(*pooledStream)
	ps.br.Reset(b)
	ps.s.Reset(&ps.br, uint64(len(b)))
	return ps
}

func putStream(ps *pooledStream) {
	ps.br.Reset(nil) // drop the input reference while parked
	streamPool.Put(ps)
}

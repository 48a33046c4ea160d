package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"github.com/rulingset/mprs/internal/mpc"
)

// Messages-frame payload layout (all integers uvarint unless noted):
//
//	boxes       — number of destination boxes (the machine count M)
//	per box:
//	  count     — messages in this box from machines the sender owns
//	  per message:
//	    src     — sending machine id
//	    words   — payload length in 64-bit words
//	    words × 8 bytes, little-endian
//
// The encoding is canonical: boxes are already stable-sorted by sender when
// the cluster hands them to the transport, and the owned subsequence
// preserves that order, so two replicas of the same superstep encode to
// identical bytes — which is what lets receivers verify frames by direct
// comparison against their local replay.

// ErrCodec is wrapped by malformed-payload errors.
var ErrCodec = errors.New("transport: malformed messages payload")

// ErrDiverged is wrapped when an authoritative frame disagrees with the
// local replica — the cross-process determinism check failed.
var ErrDiverged = errors.New("transport: replica divergence")

// encodeOwned serializes the messages of boxes whose sender is owned by the
// caller (owns reports ownership of a machine id). A sizing pass computes
// the frame's exact length, so the payload is one allocation.
func encodeOwned(boxes [][]mpc.Message, owns func(src int) bool) []byte {
	size := uvarintLen(uint64(len(boxes)))
	for _, box := range boxes {
		count := 0
		for _, msg := range box {
			if owns(msg.Src) {
				count++
				size += uvarintLen(uint64(msg.Src)) + uvarintLen(uint64(len(msg.Payload))) + 8*len(msg.Payload)
			}
		}
		size += uvarintLen(uint64(count))
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(boxes)))
	for _, box := range boxes {
		count := 0
		for _, msg := range box {
			if owns(msg.Src) {
				count++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(count))
		for _, msg := range box {
			if !owns(msg.Src) {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(msg.Src))
			buf = binary.AppendUvarint(buf, uint64(len(msg.Payload)))
			for _, w := range msg.Payload {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		}
	}
	return buf
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// payloadReader decodes the canonical layout with bounds checking.
type payloadReader struct {
	buf []byte
	off int
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.buf[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrCodec, p.off)
	}
	p.off += n
	return v, nil
}

func (p *payloadReader) word() (uint64, error) {
	if p.off+8 > len(p.buf) {
		return 0, fmt.Errorf("%w: truncated word at offset %d", ErrCodec, p.off)
	}
	v := binary.LittleEndian.Uint64(p.buf[p.off:])
	p.off += 8
	return v, nil
}

// verifyOwned checks that payload — the authoritative frame from the worker
// owning the machines selected by owns — is exactly the owned subsequence of
// the local replica boxes. A mismatch wraps ErrDiverged (the replicas
// disagree), a malformed payload wraps ErrCodec.
func verifyOwned(boxes [][]mpc.Message, owns func(src int) bool, payload []byte) error {
	p := &payloadReader{buf: payload}
	nb, err := p.uvarint()
	if err != nil {
		return err
	}
	if int(nb) != len(boxes) {
		return fmt.Errorf("%w: frame has %d boxes, replica has %d", ErrDiverged, nb, len(boxes))
	}
	for dst, box := range boxes {
		count, err := p.uvarint()
		if err != nil {
			return err
		}
		want := 0
		for _, msg := range box {
			if owns(msg.Src) {
				want++
			}
		}
		if int(count) != want {
			return fmt.Errorf("%w: box %d: frame carries %d owned messages, replica has %d", ErrDiverged, dst, count, want)
		}
		for _, msg := range box {
			if !owns(msg.Src) {
				continue
			}
			src, err := p.uvarint()
			if err != nil {
				return err
			}
			words, err := p.uvarint()
			if err != nil {
				return err
			}
			if int(src) != msg.Src || int(words) != len(msg.Payload) {
				return fmt.Errorf("%w: box %d: frame message (src %d, %d words) vs replica (src %d, %d words)", ErrDiverged, dst, src, words, msg.Src, len(msg.Payload))
			}
			for i, local := range msg.Payload {
				w, err := p.word()
				if err != nil {
					return err
				}
				if w != local {
					return fmt.Errorf("%w: box %d src %d word %d: frame %#x vs replica %#x", ErrDiverged, dst, msg.Src, i, w, local)
				}
			}
		}
	}
	if p.off != len(p.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(p.buf)-p.off)
	}
	return nil
}

// End-to-end acknowledgement protocol for spooling clients.
//
// A QoS 2 publish handshake only proves the *broker* received a frame; a
// store-and-forward client must not reclaim spooled frames until they have
// been durably applied on the server side. The translator therefore
// publishes acknowledgements back to each device on a per-device ack
// topic; the spooling client subscribes to its own ack topic and advances
// the spool's persisted low-water mark from these messages.
//
// An ack payload is: one version byte, then a uvarint count, then that
// many uvarint sequence numbers (the durable frame ids the server applied,
// see AppendFrameSeq). Acks are idempotent and unordered: the spool tracks
// a floor plus a sparse acked set, so lost, duplicated, or reordered acks
// all resolve correctly.
//
// Version 2 additionally stamps the primary's replication *term* (a
// uvarint between the version byte and the count). The term fences a
// deposed primary's translator out of the ack path: a spooling client
// tracks the highest term it has seen and ignores acks from any lower
// term, so a zombie pipeline that durably applied frames only to a store
// off the promoted lineage can never release the client's spooled copies.
// Version 1 payloads decode with term 0 (unfenced), so mixed deployments
// interoperate.
package wire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// AckVersion is the unfenced ack payload format version.
const AckVersion = 1

// AckVersionTerm is the term-stamped ack payload format version.
const AckVersionTerm = 2

// recordsSuffix is the conventional last topic segment for capture frames
// (core.DefaultTopic publishes on "provlight/<id>/records").
const recordsSuffix = "/records"

// AckSuffix is the last topic segment acknowledgements travel on.
const AckSuffix = "/acks"

// AckTopic derives the acknowledgement topic paired with a records topic:
// "provlight/<id>/records" -> "provlight/<id>/acks". Topics without the
// "/records" suffix get "/acks" appended, so every topic has a distinct,
// deterministic ack counterpart on both ends of the pipeline.
func AckTopic(recordsTopic string) string {
	return strings.TrimSuffix(recordsTopic, recordsSuffix) + AckSuffix
}

// AppendAckPayload appends the ack encoding of seqs to dst. A zero term
// produces the compact version-1 payload; a non-zero term produces the
// version-2 term-stamped payload.
func AppendAckPayload(dst []byte, term uint64, seqs []uint64) []byte {
	if term == 0 {
		dst = append(dst, AckVersion)
	} else {
		dst = append(dst, AckVersionTerm)
		dst = binary.AppendUvarint(dst, term)
	}
	dst = binary.AppendUvarint(dst, uint64(len(seqs)))
	for _, s := range seqs {
		dst = binary.AppendUvarint(dst, s)
	}
	return dst
}

// DecodeAckPayload decodes an ack message into the acknowledged frame
// sequence numbers and the publishing translator's term (0 for version-1
// unfenced payloads).
func DecodeAckPayload(p []byte) (seqs []uint64, term uint64, err error) {
	if len(p) < 2 {
		return nil, 0, fmt.Errorf("wire: ack payload too short (%d bytes)", len(p))
	}
	if p[0] != AckVersion && p[0] != AckVersionTerm {
		return nil, 0, fmt.Errorf("wire: unsupported ack version %d", p[0])
	}
	rd := &Reader{b: p[1:]}
	if p[0] == AckVersionTerm {
		if term, err = rd.Uvarint(); err != nil {
			return nil, 0, err
		}
	}
	count, err := rd.ListLen()
	if err != nil {
		return nil, 0, err
	}
	seqs = make([]uint64, 0, count)
	for i := 0; i < count; i++ {
		s, err := rd.Uvarint()
		if err != nil {
			return nil, 0, err
		}
		seqs = append(seqs, s)
	}
	if rd.Remain() != 0 {
		return nil, 0, fmt.Errorf("wire: %d trailing bytes in ack payload", rd.Remain())
	}
	return seqs, term, nil
}

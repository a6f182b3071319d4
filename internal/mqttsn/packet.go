// Package mqttsn implements the MQTT-SN (MQTT for Sensor Networks)
// protocol version 1.2 (Stanford-Clark & Truong), the application-layer
// protocol ProvLight uses over UDP (paper Table VI: "MQTT-SN, QoS 2:
// exactly once").
//
// The package provides packet-level encoding/decoding for the messages the
// pipeline exchanges, the flow engine both ends of a hop drive (Flows, the
// outbound QoS 1/2 and control exchanges in flight, and Inbound2, the
// inbound QoS 2 flows: one state machine for the broker session and the
// client), and a gateway client with QoS -1/0/1/2 publish flows, topic
// registration, subscriptions, and keepalive. Last-will messages are not
// supported: their packets are not decoded, and the broker
// (internal/broker) refuses a CONNECT that asks for one.
package mqttsn

import (
	"encoding/binary"
	"fmt"
)

// MsgType identifies an MQTT-SN message (spec §5.2.1).
type MsgType byte

// MQTT-SN message types.
const (
	ADVERTISE     MsgType = 0x00
	SEARCHGW      MsgType = 0x01
	GWINFO        MsgType = 0x02
	CONNECT       MsgType = 0x04
	CONNACK       MsgType = 0x05
	WILLTOPICREQ  MsgType = 0x06
	WILLTOPIC     MsgType = 0x07
	WILLMSGREQ    MsgType = 0x08
	WILLMSG       MsgType = 0x09
	REGISTER      MsgType = 0x0A
	REGACK        MsgType = 0x0B
	PUBLISH       MsgType = 0x0C
	PUBACK        MsgType = 0x0D
	PUBCOMP       MsgType = 0x0E
	PUBREC        MsgType = 0x0F
	PUBREL        MsgType = 0x10
	SUBSCRIBE     MsgType = 0x12
	SUBACK        MsgType = 0x13
	UNSUBSCRIBE   MsgType = 0x14
	UNSUBACK      MsgType = 0x15
	PINGREQ       MsgType = 0x16
	PINGRESP      MsgType = 0x17
	DISCONNECT    MsgType = 0x18
	WILLTOPICUPD  MsgType = 0x1A
	WILLTOPICRESP MsgType = 0x1B
	WILLMSGUPD    MsgType = 0x1C
	WILLMSGRESP   MsgType = 0x1D
)

var msgTypeNames = map[MsgType]string{
	ADVERTISE: "ADVERTISE", SEARCHGW: "SEARCHGW", GWINFO: "GWINFO",
	CONNECT: "CONNECT", CONNACK: "CONNACK",
	WILLTOPICREQ: "WILLTOPICREQ", WILLTOPIC: "WILLTOPIC",
	WILLMSGREQ: "WILLMSGREQ", WILLMSG: "WILLMSG",
	REGISTER: "REGISTER", REGACK: "REGACK",
	PUBLISH: "PUBLISH", PUBACK: "PUBACK",
	PUBCOMP: "PUBCOMP", PUBREC: "PUBREC", PUBREL: "PUBREL",
	SUBSCRIBE: "SUBSCRIBE", SUBACK: "SUBACK",
	UNSUBSCRIBE: "UNSUBSCRIBE", UNSUBACK: "UNSUBACK",
	PINGREQ: "PINGREQ", PINGRESP: "PINGRESP", DISCONNECT: "DISCONNECT",
	WILLTOPICUPD: "WILLTOPICUPD", WILLTOPICRESP: "WILLTOPICRESP",
	WILLMSGUPD: "WILLMSGUPD", WILLMSGRESP: "WILLMSGRESP",
}

// String returns the spec name of the message type.
func (t MsgType) String() string {
	if s, ok := msgTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(0x%02x)", byte(t))
}

// QoS is an MQTT-SN quality-of-service level. Level -1 ("QoS minus one")
// allows publishing without a connection.
type QoS int8

// QoS levels.
const (
	QoSMinusOne QoS = -1 // fire and forget, no connection state
	QoS0        QoS = 0  // at most once
	QoS1        QoS = 1  // at least once
	QoS2        QoS = 2  // exactly once (ProvLight's default, Table VI)
)

// TopicIDType says how the topic field of PUBLISH/SUBSCRIBE is encoded.
type TopicIDType byte

// Topic id types (spec §5.2.4, flag bits 0-1).
const (
	TopicNormal     TopicIDType = 0x00 // registered 16-bit topic id
	TopicPredefined TopicIDType = 0x01
	TopicShortName  TopicIDType = 0x02 // two-character topic name
)

// ReturnCode is carried by *ACK messages.
type ReturnCode byte

// Return codes (spec §5.2.6).
const (
	Accepted             ReturnCode = 0x00
	RejectedCongestion   ReturnCode = 0x01
	RejectedInvalidID    ReturnCode = 0x02
	RejectedNotSupported ReturnCode = 0x03
)

// String returns a human-readable return code.
func (rc ReturnCode) String() string {
	switch rc {
	case Accepted:
		return "accepted"
	case RejectedCongestion:
		return "rejected: congestion"
	case RejectedInvalidID:
		return "rejected: invalid topic ID"
	case RejectedNotSupported:
		return "rejected: not supported"
	default:
		return fmt.Sprintf("ReturnCode(0x%02x)", byte(rc))
	}
}

// Flags is the MQTT-SN flags octet (spec §5.2.4).
type Flags struct {
	DUP          bool
	QoS          QoS
	Retain       bool
	Will         bool
	CleanSession bool
	TopicIDType  TopicIDType
}

// Encode packs the flags into their octet form.
func (f Flags) Encode() byte {
	var b byte
	if f.DUP {
		b |= 0x80
	}
	switch f.QoS {
	case QoS1:
		b |= 0x20
	case QoS2:
		b |= 0x40
	case QoSMinusOne:
		b |= 0x60
	}
	if f.Retain {
		b |= 0x10
	}
	if f.Will {
		b |= 0x08
	}
	if f.CleanSession {
		b |= 0x04
	}
	b |= byte(f.TopicIDType) & 0x03
	return b
}

// DecodeFlags unpacks a flags octet.
func DecodeFlags(b byte) Flags {
	f := Flags{
		DUP:          b&0x80 != 0,
		Retain:       b&0x10 != 0,
		Will:         b&0x08 != 0,
		CleanSession: b&0x04 != 0,
		TopicIDType:  TopicIDType(b & 0x03),
	}
	switch b & 0x60 {
	case 0x00:
		f.QoS = QoS0
	case 0x20:
		f.QoS = QoS1
	case 0x40:
		f.QoS = QoS2
	case 0x60:
		f.QoS = QoSMinusOne
	}
	return f
}

// Packet is an MQTT-SN message.
type Packet interface {
	// Type returns the message type octet.
	Type() MsgType
	// body appends the variable part (after length and msgtype) to b.
	body(b []byte) []byte
	// parse fills the packet from the variable part.
	parse(b []byte) error
}

// Marshal encodes a packet with the proper 1- or 3-byte length header.
func Marshal(p Packet) []byte {
	return AppendPacket(make([]byte, 0, 64), p)
}

// AppendPacket appends the wire encoding of p to dst and returns the
// extended slice. It lets hot paths (client send, broker route) reuse a
// pooled buffer instead of allocating per packet.
func AppendPacket(dst []byte, p Packet) []byte {
	// Reserve the worst-case 4-byte header (extended length + msgtype),
	// build the body in place, then fix the header up. Small packets pay a
	// <=253-byte shift; large ones (the payload-carrying PUBLISHes) use the
	// extended header and need no copy at all.
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = p.body(dst)
	bodyLen := len(dst) - start - 4
	n := bodyLen + 2 // 1-byte length + msgtype
	if n+2 <= 255 {  // fits in a 1-byte length even after no extension
		dst[start] = byte(n)
		dst[start+1] = byte(p.Type())
		copy(dst[start+2:], dst[start+4:])
		return dst[:start+2+bodyLen]
	}
	dst[start] = 0x01
	dst[start+1] = byte((n + 2) >> 8)
	dst[start+2] = byte(n + 2)
	dst[start+3] = byte(p.Type())
	return dst
}

// Unmarshal decodes one MQTT-SN packet from a datagram.
func Unmarshal(data []byte) (Packet, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("mqttsn: datagram too short (%d bytes)", len(data))
	}
	var length int
	var rest []byte
	if data[0] == 0x01 {
		if len(data) < 4 {
			return nil, fmt.Errorf("mqttsn: truncated extended length")
		}
		length = int(binary.BigEndian.Uint16(data[1:3]))
		if length != len(data) {
			return nil, fmt.Errorf("mqttsn: length %d != datagram %d", length, len(data))
		}
		rest = data[3:]
	} else {
		length = int(data[0])
		if length != len(data) {
			return nil, fmt.Errorf("mqttsn: length %d != datagram %d", length, len(data))
		}
		rest = data[1:]
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("mqttsn: missing message type")
	}
	t := MsgType(rest[0])
	body := rest[1:]
	var p Packet
	switch t {
	case ADVERTISE:
		p = &Advertise{}
	case SEARCHGW:
		p = &SearchGw{}
	case GWINFO:
		p = &GwInfo{}
	case CONNECT:
		p = &Connect{}
	case CONNACK:
		p = &Connack{}
	case REGISTER:
		p = &Register{}
	case REGACK:
		p = &Regack{}
	case PUBLISH:
		p = &Publish{}
	case PUBACK:
		p = &Puback{}
	case PUBREC:
		p = &Pubrec{}
	case PUBREL:
		p = &Pubrel{}
	case PUBCOMP:
		p = &Pubcomp{}
	case SUBSCRIBE:
		p = &Subscribe{}
	case SUBACK:
		p = &Suback{}
	case UNSUBSCRIBE:
		p = &Unsubscribe{}
	case UNSUBACK:
		p = &Unsuback{}
	case PINGREQ:
		p = &Pingreq{}
	case PINGRESP:
		p = &Pingresp{}
	case DISCONNECT:
		p = &Disconnect{}
	default:
		return nil, fmt.Errorf("mqttsn: unsupported message type %s", t)
	}
	if err := p.parse(body); err != nil {
		return nil, fmt.Errorf("mqttsn: parse %s: %w", t, err)
	}
	return p, nil
}

func u16(b []byte) uint16 { return binary.BigEndian.Uint16(b) }

func needLen(b []byte, n int) error {
	if len(b) < n {
		return fmt.Errorf("body too short: %d < %d", len(b), n)
	}
	return nil
}

// Advertise is broadcast periodically by gateways.
type Advertise struct {
	GwID     byte
	Duration uint16
}

// Type implements Packet.
func (*Advertise) Type() MsgType { return ADVERTISE }
func (p *Advertise) body(b []byte) []byte {
	b = append(b, p.GwID)
	return binary.BigEndian.AppendUint16(b, p.Duration)
}
func (p *Advertise) parse(b []byte) error {
	if err := needLen(b, 3); err != nil {
		return err
	}
	p.GwID, p.Duration = b[0], u16(b[1:])
	return nil
}

// SearchGw searches for gateways within a radius.
type SearchGw struct{ Radius byte }

// Type implements Packet.
func (*SearchGw) Type() MsgType          { return SEARCHGW }
func (p *SearchGw) body(b []byte) []byte { return append(b, p.Radius) }
func (p *SearchGw) parse(b []byte) error {
	if err := needLen(b, 1); err != nil {
		return err
	}
	p.Radius = b[0]
	return nil
}

// GwInfo answers SearchGw.
type GwInfo struct {
	GwID  byte
	GwAdd []byte
}

// Type implements Packet.
func (*GwInfo) Type() MsgType { return GWINFO }
func (p *GwInfo) body(b []byte) []byte {
	b = append(b, p.GwID)
	return append(b, p.GwAdd...)
}
func (p *GwInfo) parse(b []byte) error {
	if err := needLen(b, 1); err != nil {
		return err
	}
	p.GwID = b[0]
	if len(b) > 1 {
		p.GwAdd = append([]byte(nil), b[1:]...)
	}
	return nil
}

// Connect opens a session with a gateway.
type Connect struct {
	Flags    Flags
	Duration uint16 // keepalive in seconds
	ClientID string
}

// Type implements Packet.
func (*Connect) Type() MsgType { return CONNECT }
func (p *Connect) body(b []byte) []byte {
	b = append(b, p.Flags.Encode(), 0x01) // ProtocolId = 0x01
	b = binary.BigEndian.AppendUint16(b, p.Duration)
	return append(b, p.ClientID...)
}
func (p *Connect) parse(b []byte) error {
	if err := needLen(b, 4); err != nil {
		return err
	}
	p.Flags = DecodeFlags(b[0])
	if b[1] != 0x01 {
		return fmt.Errorf("unknown protocol id 0x%02x", b[1])
	}
	p.Duration = u16(b[2:])
	p.ClientID = string(b[4:])
	if p.ClientID == "" {
		return fmt.Errorf("empty client id")
	}
	return nil
}

// Connack acknowledges Connect.
type Connack struct{ ReturnCode ReturnCode }

// Type implements Packet.
func (*Connack) Type() MsgType          { return CONNACK }
func (p *Connack) body(b []byte) []byte { return append(b, byte(p.ReturnCode)) }
func (p *Connack) parse(b []byte) error {
	if err := needLen(b, 1); err != nil {
		return err
	}
	p.ReturnCode = ReturnCode(b[0])
	return nil
}

// Register maps a topic name to a 16-bit topic id.
type Register struct {
	TopicID   uint16
	MsgID     uint16
	TopicName string
}

// Type implements Packet.
func (*Register) Type() MsgType { return REGISTER }
func (p *Register) body(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, p.TopicID)
	b = binary.BigEndian.AppendUint16(b, p.MsgID)
	return append(b, p.TopicName...)
}
func (p *Register) parse(b []byte) error {
	if err := needLen(b, 5); err != nil {
		return err
	}
	p.TopicID, p.MsgID, p.TopicName = u16(b), u16(b[2:]), string(b[4:])
	return nil
}

// Regack acknowledges Register.
type Regack struct {
	TopicID    uint16
	MsgID      uint16
	ReturnCode ReturnCode
}

// Type implements Packet.
func (*Regack) Type() MsgType { return REGACK }
func (p *Regack) body(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, p.TopicID)
	b = binary.BigEndian.AppendUint16(b, p.MsgID)
	return append(b, byte(p.ReturnCode))
}
func (p *Regack) parse(b []byte) error {
	if err := needLen(b, 5); err != nil {
		return err
	}
	p.TopicID, p.MsgID, p.ReturnCode = u16(b), u16(b[2:]), ReturnCode(b[4])
	return nil
}

// Publish carries application payload for a topic.
type Publish struct {
	Flags   Flags
	TopicID uint16
	MsgID   uint16
	Data    []byte
}

// Type implements Packet.
func (*Publish) Type() MsgType { return PUBLISH }
func (p *Publish) body(b []byte) []byte {
	b = append(b, p.Flags.Encode())
	b = binary.BigEndian.AppendUint16(b, p.TopicID)
	b = binary.BigEndian.AppendUint16(b, p.MsgID)
	return append(b, p.Data...)
}
func (p *Publish) parse(b []byte) error {
	if err := needLen(b, 5); err != nil {
		return err
	}
	p.Flags = DecodeFlags(b[0])
	p.TopicID, p.MsgID = u16(b[1:]), u16(b[3:])
	p.Data = append([]byte(nil), b[5:]...)
	return nil
}

// Puback acknowledges a QoS 1 Publish (or rejects any Publish).
type Puback struct {
	TopicID    uint16
	MsgID      uint16
	ReturnCode ReturnCode
}

// Type implements Packet.
func (*Puback) Type() MsgType { return PUBACK }
func (p *Puback) body(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, p.TopicID)
	b = binary.BigEndian.AppendUint16(b, p.MsgID)
	return append(b, byte(p.ReturnCode))
}
func (p *Puback) parse(b []byte) error {
	if err := needLen(b, 5); err != nil {
		return err
	}
	p.TopicID, p.MsgID, p.ReturnCode = u16(b), u16(b[2:]), ReturnCode(b[4])
	return nil
}

// msgIDOnly is shared by PUBREC/PUBREL/PUBCOMP/UNSUBACK bodies.
type msgIDOnly struct{ MsgID uint16 }

func (p *msgIDOnly) body(b []byte) []byte { return binary.BigEndian.AppendUint16(b, p.MsgID) }
func (p *msgIDOnly) parse(b []byte) error {
	if err := needLen(b, 2); err != nil {
		return err
	}
	p.MsgID = u16(b)
	return nil
}

// Pubrec is the first acknowledgement of the QoS 2 flow.
type Pubrec struct{ msgIDOnly }

// Type implements Packet.
func (*Pubrec) Type() MsgType { return PUBREC }

// Pubrel releases a QoS 2 message for delivery.
type Pubrel struct{ msgIDOnly }

// Type implements Packet.
func (*Pubrel) Type() MsgType { return PUBREL }

// Pubcomp completes the QoS 2 flow.
type Pubcomp struct{ msgIDOnly }

// Type implements Packet.
func (*Pubcomp) Type() MsgType { return PUBCOMP }

// Subscribe subscribes to a topic name (possibly with wildcards), a
// registered topic id, or a short topic name.
type Subscribe struct {
	Flags     Flags
	MsgID     uint16
	TopicName string // used when Flags.TopicIDType == TopicNormal or TopicShortName
	TopicID   uint16 // used when Flags.TopicIDType == TopicPredefined
}

// Type implements Packet.
func (*Subscribe) Type() MsgType { return SUBSCRIBE }
func (p *Subscribe) body(b []byte) []byte {
	b = append(b, p.Flags.Encode())
	b = binary.BigEndian.AppendUint16(b, p.MsgID)
	if p.Flags.TopicIDType == TopicPredefined {
		return binary.BigEndian.AppendUint16(b, p.TopicID)
	}
	return append(b, p.TopicName...)
}
func (p *Subscribe) parse(b []byte) error {
	if err := needLen(b, 4); err != nil {
		return err
	}
	p.Flags = DecodeFlags(b[0])
	p.MsgID = u16(b[1:])
	if p.Flags.TopicIDType == TopicPredefined {
		if err := needLen(b, 5); err != nil {
			return err
		}
		p.TopicID = u16(b[3:])
		return nil
	}
	p.TopicName = string(b[3:])
	return nil
}

// Suback acknowledges Subscribe, assigning a topic id for exact topics.
type Suback struct {
	Flags      Flags
	TopicID    uint16
	MsgID      uint16
	ReturnCode ReturnCode
}

// Type implements Packet.
func (*Suback) Type() MsgType { return SUBACK }
func (p *Suback) body(b []byte) []byte {
	b = append(b, p.Flags.Encode())
	b = binary.BigEndian.AppendUint16(b, p.TopicID)
	b = binary.BigEndian.AppendUint16(b, p.MsgID)
	return append(b, byte(p.ReturnCode))
}
func (p *Suback) parse(b []byte) error {
	if err := needLen(b, 6); err != nil {
		return err
	}
	p.Flags = DecodeFlags(b[0])
	p.TopicID, p.MsgID, p.ReturnCode = u16(b[1:]), u16(b[3:]), ReturnCode(b[5])
	return nil
}

// Unsubscribe removes a subscription.
type Unsubscribe struct {
	Flags     Flags
	MsgID     uint16
	TopicName string
	TopicID   uint16
}

// Type implements Packet.
func (*Unsubscribe) Type() MsgType { return UNSUBSCRIBE }
func (p *Unsubscribe) body(b []byte) []byte {
	b = append(b, p.Flags.Encode())
	b = binary.BigEndian.AppendUint16(b, p.MsgID)
	if p.Flags.TopicIDType == TopicPredefined {
		return binary.BigEndian.AppendUint16(b, p.TopicID)
	}
	return append(b, p.TopicName...)
}
func (p *Unsubscribe) parse(b []byte) error {
	if err := needLen(b, 4); err != nil {
		return err
	}
	p.Flags = DecodeFlags(b[0])
	p.MsgID = u16(b[1:])
	if p.Flags.TopicIDType == TopicPredefined {
		if err := needLen(b, 5); err != nil {
			return err
		}
		p.TopicID = u16(b[3:])
		return nil
	}
	p.TopicName = string(b[3:])
	return nil
}

// Unsuback acknowledges Unsubscribe.
type Unsuback struct{ msgIDOnly }

// Type implements Packet.
func (*Unsuback) Type() MsgType { return UNSUBACK }

// Pingreq is the keepalive probe; sleeping clients include their id.
type Pingreq struct{ ClientID string }

// Type implements Packet.
func (*Pingreq) Type() MsgType          { return PINGREQ }
func (p *Pingreq) body(b []byte) []byte { return append(b, p.ClientID...) }
func (p *Pingreq) parse(b []byte) error {
	p.ClientID = string(b)
	return nil
}

// Pingresp answers Pingreq.
type Pingresp struct{}

// Type implements Packet.
func (*Pingresp) Type() MsgType          { return PINGRESP }
func (p *Pingresp) body(b []byte) []byte { return b }
func (p *Pingresp) parse([]byte) error   { return nil }

// Disconnect closes a session; a duration puts the client to sleep.
type Disconnect struct {
	Duration    uint16
	HasDuration bool
}

// Type implements Packet.
func (*Disconnect) Type() MsgType { return DISCONNECT }
func (p *Disconnect) body(b []byte) []byte {
	if p.HasDuration {
		return binary.BigEndian.AppendUint16(b, p.Duration)
	}
	return b
}
func (p *Disconnect) parse(b []byte) error {
	if len(b) >= 2 {
		p.Duration = u16(b)
		p.HasDuration = true
	}
	return nil
}

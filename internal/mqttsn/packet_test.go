package mqttsn

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, p Packet) Packet {
	t.Helper()
	data := Marshal(p)
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", p.Type(), err)
	}
	if got.Type() != p.Type() {
		t.Fatalf("type changed: %s -> %s", p.Type(), got.Type())
	}
	return got
}

// roundTripPackets is one of each packet the codec handles; the fuzzer
// seeds its corpus from them too.
var roundTripPackets = []Packet{
	&Advertise{GwID: 3, Duration: 900},
	&SearchGw{Radius: 2},
	&GwInfo{GwID: 1, GwAdd: []byte{10, 0, 0, 1}},
	&Connect{Flags: Flags{CleanSession: true, Will: true}, Duration: 30, ClientID: "edge-device-7"},
	&Connack{ReturnCode: Accepted},
	&Register{TopicID: 7, MsgID: 21, TopicName: "provlight/wf/1"},
	&Regack{TopicID: 7, MsgID: 21, ReturnCode: Accepted},
	&Publish{Flags: Flags{QoS: QoS2}, TopicID: 7, MsgID: 99, Data: []byte{1, 2, 3}},
	&Puback{TopicID: 7, MsgID: 99, ReturnCode: RejectedInvalidID},
	&Pubrec{msgIDOnly{MsgID: 99}},
	&Pubrel{msgIDOnly{MsgID: 99}},
	&Pubcomp{msgIDOnly{MsgID: 99}},
	&Subscribe{Flags: Flags{QoS: QoS1}, MsgID: 5, TopicName: "provlight/+/tasks"},
	&Suback{Flags: Flags{QoS: QoS1}, TopicID: 9, MsgID: 5, ReturnCode: Accepted},
	&Unsubscribe{MsgID: 6, TopicName: "provlight/+/tasks"},
	&Unsuback{msgIDOnly{MsgID: 6}},
	&Pingreq{ClientID: "edge-device-7"},
	&Pingreq{},
	&Pingresp{},
	&Disconnect{},
	&Disconnect{Duration: 120, HasDuration: true},
}

func TestPacketRoundTrips(t *testing.T) {
	for _, p := range roundTripPackets {
		got := roundTrip(t, p)
		if !reflect.DeepEqual(got, p) {
			t.Errorf("%s round trip mismatch:\n got %#v\nwant %#v", p.Type(), got, p)
		}
	}
}

func TestSubscribePredefinedTopic(t *testing.T) {
	p := &Subscribe{Flags: Flags{QoS: QoS2, TopicIDType: TopicPredefined}, MsgID: 9, TopicID: 42}
	got := roundTrip(t, p).(*Subscribe)
	if got.TopicID != 42 || got.TopicName != "" {
		t.Errorf("predefined subscribe round trip: %#v", got)
	}
}

func TestLargePublishUsesExtendedLength(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAA}, 1000)
	p := &Publish{Flags: Flags{QoS: QoS2}, TopicID: 1, MsgID: 2, Data: payload}
	data := Marshal(p)
	if data[0] != 0x01 {
		t.Fatalf("first byte = 0x%02x, want 0x01 (extended length)", data[0])
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.(*Publish).Data, payload) {
		t.Error("payload corrupted through extended-length encoding")
	}
}

func TestFlagsEncodeDecode(t *testing.T) {
	cases := []Flags{
		{},
		{DUP: true, QoS: QoS2, Retain: true},
		{QoS: QoS1, Will: true, CleanSession: true},
		{QoS: QoSMinusOne, TopicIDType: TopicShortName},
		{QoS: QoS0, TopicIDType: TopicPredefined},
	}
	for _, f := range cases {
		if got := DecodeFlags(f.Encode()); got != f {
			t.Errorf("flags round trip: %+v -> %+v", f, got)
		}
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{1},
		{5, 0x04, 0, 0},                 // declared length 5, actual 4
		{3, 0xFF, 0},                    // unknown type
		{2, byte(CONNACK)},              // connack without return code
		{0x01, 0, 10, byte(PINGRESP)},   // extended length mismatch
		{6, byte(CONNECT), 0, 2, 0, 30}, // bad protocol id
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: expected error for % x", i, c)
		}
	}
}

func TestConnectRejectsEmptyClientID(t *testing.T) {
	raw := Marshal(&Connect{Duration: 10, ClientID: "x"})
	// Strip the client id byte and fix the length.
	raw = raw[:len(raw)-1]
	raw[0] = byte(len(raw))
	if _, err := Unmarshal(raw); err == nil {
		t.Error("expected error for empty client id")
	}
}

// Property: Unmarshal never panics on arbitrary bytes.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on % x: %v", data, r)
			}
		}()
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: Publish round-trips for arbitrary payloads and ids.
func TestPublishRoundTripProperty(t *testing.T) {
	f := func(topicID, msgID uint16, data []byte, dup bool, qos uint8) bool {
		q := QoS(qos % 3)
		p := &Publish{Flags: Flags{QoS: q, DUP: dup}, TopicID: topicID, MsgID: msgID, Data: data}
		got, err := Unmarshal(Marshal(p))
		if err != nil {
			return false
		}
		gp := got.(*Publish)
		if data == nil {
			data = []byte{}
		}
		if gp.Data == nil {
			gp.Data = []byte{}
		}
		return gp.TopicID == topicID && gp.MsgID == msgID &&
			gp.Flags.QoS == q && gp.Flags.DUP == dup && bytes.Equal(gp.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTopicMatches(t *testing.T) {
	cases := []struct {
		filter, topic string
		want          bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b/d", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/b/d", false},
		{"a/+/c", "a/b/x/c", false},
		{"a/#", "a/b/c", true},
		{"a/#", "a", true},
		{"#", "anything/at/all", true},
		{"+", "one", true},
		{"+", "one/two", false},
		{"a/+/#", "a/b", true},
		{"a/+/#", "a/b/c/d", true},
		{"a/+/#", "a", false},
		{"provlight/+/records", "provlight/device-17/records", true},
	}
	for _, c := range cases {
		if got := TopicMatches(c.filter, c.topic); got != c.want {
			t.Errorf("TopicMatches(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
	}
}

func TestValidFilterAndTopicName(t *testing.T) {
	valid := []string{"a", "a/b", "+", "#", "a/+/b", "a/#"}
	for _, f := range valid {
		if !ValidFilter(f) {
			t.Errorf("ValidFilter(%q) = false, want true", f)
		}
	}
	invalid := []string{"", "a/#/b", "a#", "a/b+", "#/a"}
	for _, f := range invalid {
		if ValidFilter(f) {
			t.Errorf("ValidFilter(%q) = true, want false", f)
		}
	}
	if !ValidTopicName("a/b/c") || ValidTopicName("a/+") || ValidTopicName("") || ValidTopicName("a/#") {
		t.Error("ValidTopicName misbehaves")
	}
}

// Property: a filter without wildcards matches exactly itself.
func TestExactFilterProperty(t *testing.T) {
	f := func(levelsRaw []uint8) bool {
		if len(levelsRaw) == 0 || len(levelsRaw) > 6 {
			return true
		}
		topic := ""
		for i, l := range levelsRaw {
			if i > 0 {
				topic += "/"
			}
			topic += string(rune('a' + l%26))
		}
		return TopicMatches(topic, topic) && !TopicMatches(topic, topic+"/x")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package mqttsn

import (
	"reflect"
	"testing"
)

// FuzzUnmarshal checks the packet codec on arbitrary datagrams: Unmarshal
// must never panic, and a packet it accepts must survive a second trip
// through Marshal and Unmarshal unchanged.
func FuzzUnmarshal(f *testing.F) {
	for _, p := range roundTripPackets {
		f.Add(Marshal(p))
	}
	f.Add(Marshal(&Publish{Flags: Flags{QoS: QoS1}, TopicID: 1, MsgID: 2, Data: make([]byte, 300)}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x04, byte(PINGRESP)})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		again, err := Unmarshal(Marshal(p))
		if err != nil {
			t.Fatalf("re-marshalled %s from % x does not decode: %v", p.Type(), data, err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("%s from % x changed through a round trip:\n got %#v\nwant %#v", p.Type(), data, again, p)
		}
	})
}

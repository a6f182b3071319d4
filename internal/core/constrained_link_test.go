package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/transport"
)

// TestConstrainedLinkSendsEachPackOnce: on the paper's constrained device
// link (25 Kbit/s, 11.5 ms; Tables III/VIII) a memory-mode client with the
// default config sends a burst of incompressible records in packs that
// take seconds each to serialize. The retransmission timer starts when a
// pack's write returns and adapts to the measured round trips, so no pack
// is re-sent while its own bytes are still leaving (at most 10 % of the
// PUBLISHes are re-sent), and Flush returns within 1.2 times the time the
// published bytes need on the link.
func TestConstrainedLinkSendsEachPackOnce(t *testing.T) {
	t.Parallel() // seconds of serialization, not of CPU
	link := netem.Constrained25Kbit
	client, mem, _ := startPipeline(t, func(c *Config) {
		c.Transport = netem.WrapTransport(transport.UDP{}, netem.Profile{BandwidthBps: link.BandwidthBps, Delay: link.Delay})
	})
	const records = 24
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for i := 0; i < records; i++ {
		blob := make([]byte, 720)
		rng.Read(blob)
		if err := client.Capture(&provdm.Record{
			Event: provdm.EventTaskBegin, WorkflowID: "wf", TaskID: string(rune('a' + i)), Time: time.Now(),
			Data: []provdm.DataRef{{ID: "blob", Attributes: []provdm.Attribute{{Name: "b", Value: blob}}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	st, mst := client.StatsSnapshot(), client.MQTTStats()
	serialization := time.Duration(float64(st.BytesPublished*8) / float64(link.BandwidthBps) * float64(time.Second))
	t.Logf("%d records, %d B in %d PUBLISHes: Flush after %v, serialization %v, %d retransmissions, RTO %v",
		st.RecordsCaptured, st.BytesPublished, st.Publishes, took.Round(time.Millisecond), serialization.Round(time.Millisecond),
		mst.Retransmissions, mst.RetryTimeout)
	if st.Publishes < 2 {
		t.Fatalf("%d PUBLISHes, want the burst split into several packs", st.Publishes)
	}
	if mst.Retransmissions*10 > st.Publishes {
		t.Errorf("%d retransmissions for %d PUBLISHes, want at most 10 %%", mst.Retransmissions, st.Publishes)
	}
	if limit := serialization * 12 / 10; took > limit {
		t.Errorf("Flush after %v, want at most 1.2 × the %v the bytes take on the link", took, serialization)
	}
	waitRecords(t, mem, records)
}

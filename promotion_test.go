// Promotion end-to-end test with no replication term configured anywhere:
// the HTTP store servers, translators built as provlight-translate builds
// them and a spooling device must learn the promoted term from the
// store's answers alone.
package provlight_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	provlight "github.com/provlight/provlight"
	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/replica"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
)

// startCmdTranslator starts a translator configured as
// `provlight-translate -dfanalyzer URL` configures it: an in-memory target
// and a DfAnalyzerTarget whose client (returned too) retries, acks on, no
// term.
func startCmdTranslator(t *testing.T, ctx context.Context, brokerAddr, clientID, dfaURL string, reg *obs.Registry) (*translate.Translator, *dfanalyzer.Client) {
	t.Helper()
	cl := dfanalyzer.NewClient(dfaURL).WithRetry(5, 100*time.Millisecond, 5*time.Second)
	tr, err := translate.New(ctx, translate.Config{
		Broker:      brokerAddr,
		ClientID:    clientID,
		TopicFilter: "provlight/+/records",
		Sessions:    1,
		BatchSize:   64,
		Targets:     []translate.Target{translate.NewMemoryTarget(), translate.NewDfAnalyzerTarget(cl, "provlight")},
		OnError:     func(err error) { t.Logf("%s: %v", clientID, err) },
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, cl
}

// scrape reads one sample from a registry, as GET /metrics would serve it.
func scrape(t *testing.T, reg *obs.Registry, name string, kv ...string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := sc.Value(name, kv...)
	if !ok {
		t.Fatalf("%s %v not exported", name, kv)
	}
	return v
}

// TestPromotionTermLearned: a dfanalyzer.Server on a MinSync-1 primary and
// one on its follower; a translator feeding the primary over HTTP; a
// spooling device on a lossy link. The follower is promoted, a second
// translator feeds it, and the first keeps feeding the deposed primary.
// Nothing is told the new term. Every record must be stored exactly once
// on the promoted store, the device must fence at the promoted term, and
// no ack from the deposed primary's translator may release a spooled
// frame: it cannot commit without its follower, answers 503, and sends
// none (an ack it did send would have to be dropped as stale).
func TestPromotionTermLearned(t *testing.T) {
	if testing.Short() {
		t.Skip("promotion e2e in -short mode")
	}
	t.Parallel() // mostly waits: the commit timeout, and re-sends on a lossy link
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// dfanalyzer-server -data-dir A -replication-listen ... -min-sync 1
	storeA := openReplStore(t, t.TempDir())
	defer storeA.Close()
	replA, err := replica.NewServer(storeA, replica.Options{MinSync: 1, HeartbeatInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := replA.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer replA.Close()
	srvA := dfanalyzer.NewServer(storeA)
	if err := srvA.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// dfanalyzer-server -data-dir B -replicate-from A
	storeB := openReplStore(t, t.TempDir())
	defer storeB.Close()
	fB := startTestFollower(t, storeB, replA.Addr(), "replica-b")
	defer fB.Stop()
	srvB := dfanalyzer.NewServer(storeB)
	if err := srvB.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	trA, clA := startCmdTranslator(t, ctx, b.Addr(), "translator-a", "http://"+srvA.Addr(), obs.NewRegistry())
	// Stop trA before replA closes: a closed replication server drops
	// the commit wait, and the deposed primary would then ack.
	defer trA.Abort()
	defer srvA.Close()

	devMetrics := obs.NewRegistry()
	client, err := provlight.NewClient(ctx, provlight.Config{
		Broker:            b.Addr(),
		ClientID:          "edge-1",
		SpoolDir:          t.TempDir(),
		Transport:         netem.WrapTransport(transport.UDP{}, netem.Profile{LossRate: 0.25, DupRate: 0.10, Seed: 2001}),
		AckWindow:         32,
		RedeliverAfter:    500 * time.Millisecond,
		ReconnectMinDelay: 50 * time.Millisecond,
		ReconnectMaxDelay: 400 * time.Millisecond,
		OnError:           func(err error) { t.Logf("client: %v", err) },
		Metrics:           devMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Abort()

	// ---- phase 1: everything acked under the primary's term ----
	const n = 24
	captureRange(t, client, 0, n/2)
	waitCondition(t, "phase 1 acked", func() bool { return client.StatsSnapshot().SpoolPending == 0 })
	termA := storeA.CurrentTerm()
	if st := client.StatsSnapshot(); termA == 0 || st.AckTerm != termA {
		t.Fatalf("phase 1: device ack term %d, primary term %d; want the primary's non-zero term", st.AckTerm, termA)
	}
	waitCondition(t, "follower B caught up", func() bool { return fB.AppliedSeq() == lastSeq(storeA) })

	// ---- promote B, as dfanalyzer-server -promote does ----
	fB.Stop()
	termB, err := storeB.Promote()
	if err != nil {
		t.Fatal(err)
	}
	acksA, framesA := trA.Stats().AcksPublished, trA.Stats().FramesReceived
	regB := obs.NewRegistry()
	trB, _ := startCmdTranslator(t, ctx, b.Addr(), "translator-b", "http://"+srvB.Addr(), regB)
	defer trB.Abort()

	// ---- phase 2: both translators take every frame ----
	captureRange(t, client, n/2, n)
	waitCondition(t, "phase 2 acked", func() bool { return client.StatsSnapshot().SpoolPending == 0 })
	trB.Drain()
	st := client.StatsSnapshot()
	if st.AckTerm != termB {
		t.Fatalf("device ack term = %d, want promoted term %d", st.AckTerm, termB)
	}
	if v := scrape(t, devMetrics, "provlight_client_ack_term", "client", "edge-1"); v != float64(termB) {
		t.Fatalf("provlight_client_ack_term = %v, want %d", v, termB)
	}
	if v := scrape(t, regB, "provlight_translate_term"); v != float64(termB) {
		t.Fatalf("provlight_translate_term on the promoted side = %v, want %d", v, termB)
	}
	assertExactlyOnce(t, storeB, n)

	// The deposed primary applies trA's batch but cannot replicate it:
	// its commit wait gives up and it answers 503, naming its old term.
	waitCondition(t, "deposed primary answering 503", func() bool {
		return strings.Contains(clA.BreakerStats().LastErr, "503")
	})
	if clA.Term() != termA {
		t.Fatalf("deposed primary's writer term = %d, want %d", clA.Term(), termA)
	}
	xa := trA.Stats()
	if xa.FramesReceived == framesA {
		t.Fatalf("setup: the deposed primary's translator received no phase-2 frame")
	}
	if zombie := xa.AcksPublished - acksA; zombie > st.StaleAcks {
		t.Fatalf("deposed primary's translator sent %d acks after the promotion, device dropped only %d as stale",
			zombie, st.StaleAcks)
	}
	if err := client.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	t.Logf("promotion: term %d -> %d, %d records once on the promoted store, deposed translator acks %d, stale acks %d",
		termA, termB, n, xa.AcksPublished-acksA, st.StaleAcks)
}

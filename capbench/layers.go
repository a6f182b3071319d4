package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// perLayer prints and records the per-layer metrics of the traced phase,
// the layers' self times from its spans, and the tracing overhead
// against the untraced phase. snap is the snapshot ladder's time.
func perLayer(rep *report, st *runState, plain, ph *phase, setups []setupTimes, snap time.Duration, traceDir string) error {
	recs := st.in.recs[0]
	wl, err := runWireLadder(recs)
	if err != nil {
		return err
	}
	appendUS, err := spoolLadder(recs, st.dir)
	if err != nil {
		return err
	}
	frames := st.tr.take()
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", st.s.name, st.seed))
	if err := writeTrace(path, frames); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}

	// Per-frame spans: client queue [capture, device write], broker tier
	// [device write, translator read] with the cluster forward
	// [device write, link write] as its child, translator
	// [translator read, apply start], store [apply start, apply end].
	var sendWait, route, forward, brokerSelf, xlWait, apply []int64
	for _, f := range frames {
		if f.devWrite != 0 {
			sendWait = append(sendWait, f.devWrite-f.capture)
		}
		if f.devWrite != 0 && f.xlRead != 0 {
			route = append(route, f.xlRead-f.devWrite)
			self := f.xlRead - f.devWrite
			if f.linkWrite != 0 {
				forward = append(forward, f.linkWrite-f.devWrite)
				self = f.xlRead - f.linkWrite
			}
			brokerSelf = append(brokerSelf, self)
		}
		if f.xlRead != 0 && f.applyStart != 0 {
			xlWait = append(xlWait, f.applyStart-f.xlRead)
		}
		if f.applyStart != 0 {
			apply = append(apply, f.applyEnd-f.applyStart)
		}
	}
	b, a := ph.before, ph.after
	captured := float64(max(ph.captured, 1))
	applied := float64(ph.applied)
	frameDelta := float64(max(a.frames-b.frames, 1))
	xlFrames := float64(max(a.xl.FramesReceived-b.xl.FramesReceived, 1))
	var dgrams, bytes uint64
	for r := range ph.net {
		dgrams += ph.net[r].outDgram
		bytes += ph.net[r].outBytes
	}
	dev := ph.net[roleDevice]
	ms := func(ns []int64) float64 { return float64(pct(sorted(ns), 0.5)) / 1e6 }

	fmt.Fprintf(rep.out, "per-layer (traced phase, %d frames traced, trace in %s):\n", len(frames), path)
	rep.add("wire.encode_us_per_frame", "us", wl.encodeUS)
	rep.add("wire.decode_us_per_frame", "us", wl.decodeUS)
	rep.add("wire.frame_bytes", "B", wl.frameBytes)
	rep.add("wire.encode_allocs_per_frame", "count", wl.encodeAllocs)
	rep.add("core.send_wait_ms", "ms", ms(sendWait))
	rep.add("core.queue_full", "count", float64(a.queueFull-b.queueFull))
	rep.add("spool.append_us", "us", appendUS)
	if st.s.spooled {
		rep.add("spool.redeliveries", "count", float64(a.redeliveries-b.redeliveries))
		rep.add("spool.reconnects", "count", float64(a.reconnects-b.reconnects))
	} else {
		rep.notApplicable("spool.redeliveries", "count", "devices do not spool")
		rep.notApplicable("spool.reconnects", "count", "devices do not spool")
	}
	rep.add("mqttsn.packets_per_frame", "count", float64(dev.outDgram+dev.inDgram)/captured)
	rep.add("mqttsn.retransmits", "count", float64(a.retransmits)-float64(b.retransmits))
	rep.add("transport.datagrams_per_record", "count", float64(dgrams)/applied)
	rep.add("transport.bytes_per_record", "B", float64(bytes)/applied)
	rep.add("broker.route_ms", "ms", ms(route))
	rep.add("broker.retransmissions", "count", float64(a.broker.Retransmissions-b.broker.Retransmissions))
	rep.add("broker.delivery_giveups", "count", float64(a.broker.DeliveryGiveUps-b.broker.DeliveryGiveUps))
	rep.add("broker.duplicates_dropped", "count", float64(a.broker.DuplicatesDropped-b.broker.DuplicatesDropped))
	if st.s.cluster {
		rep.add("cluster.forwarded_per_frame", "count", float64(a.forwarded-b.forwarded)/frameDelta)
		rep.add("cluster.route_ms", "ms", ms(forward))
	} else {
		rep.notApplicable("cluster.forwarded_per_frame", "count", "single broker")
		rep.notApplicable("cluster.route_ms", "ms", "single broker")
	}
	rep.add("translate.frames_per_batch", "count",
		xlFrames/float64(max(a.xl.BatchesDelivered-b.xl.BatchesDelivered, 1)))
	rep.add("translate.acks_per_frame", "count", float64(a.xl.AcksPublished-b.xl.AcksPublished)/xlFrames)
	rep.add("translate.wait_ms", "ms", ms(xlWait))
	rep.add("translate.redials", "count", float64(a.xl.SessionRedials-b.xl.SessionRedials))
	rep.add("dfanalyzer.apply_us_per_frame", "us", float64(a.applyNS-b.applyNS)/1e3/frameDelta)
	rep.add("dfanalyzer.wal_ops_per_frame", "count", float64(a.walSeq-b.walSeq)/frameDelta)
	rep.add("dfanalyzer.snapshots", "count", float64(a.snapshots-b.snapshots))
	rep.add("dfanalyzer.snapshot_ms", "ms", float64(snap.Microseconds())/1e3)
	rep.add("dfanalyzer.recover_s", "s", medianSetup(setups, func(t setupTimes) time.Duration { return t.recover }).Seconds())
	for k := 0; k < numQueryKinds; k++ {
		rep.add("source."+queryKindNames[k]+"_ms", "ms", float64(pct(sortedQueries(ph.queries, k), 0.5))/1e6)
	}
	cpuPlain := float64(plain.cpu.Microseconds()) / float64(plain.applied)
	cpuTraced := float64(ph.cpu.Microseconds()) / applied
	rep.add("trace.cpu_overhead_us_per_record", "us", cpuTraced-cpuPlain)

	fmt.Fprintln(rep.out, "self time p50 per layer (traced phase):")
	for _, l := range []struct {
		name string
		ns   []int64
	}{
		{"core (capture stamp -> device write)", sendWait},
		{"broker tier excl. forward", brokerSelf},
		{"cluster forward (device write -> link write)", forward},
		{"translate (read -> DeliverFrames)", xlWait},
		{"dfanalyzer (DeliverFrames call)", apply},
	} {
		fmt.Fprintf(rep.out, "  %-46s %10.4f ms (n=%d)\n", l.name, ms(l.ns), len(l.ns))
	}
	fmt.Fprintf(rep.out, "tracing overhead: cpu_us_per_record %.2f untraced vs %.2f traced\n", cpuPlain, cpuTraced)
	return nil
}

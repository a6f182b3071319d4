package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/spool"
	"github.com/provlight/provlight/internal/wire"
)

// This file implements the client's store-and-forward mode
// (Config.SpoolDir): captures append to a disk spool, and a supervised
// broker session (mqttsn.Session) drains it — sliding an ack window over
// the spool and rewinding to redeliver frames whose acknowledgements
// never arrived. Delivery is exactly once end to end: each frame carries
// its durable seq, the translator acks it only after durable delivery to
// every target, and the store deduplicates on (origin, seq). Broker
// receipt does not release a frame; only that ack advances the spool's
// persisted floor. So the hops need no exactly-once of their own, and a
// frame configured at QoS 2 crosses each of them at QoS 1: two packets
// per hop instead of four.

// openSpool applies the spool-mode defaults and opens the spool; the
// broker does not need to be reachable.
func (c *Client) openSpool() error {
	if c.cfg.AckWindow <= 0 {
		c.cfg.AckWindow = 64
	}
	if c.cfg.RedeliverAfter <= 0 {
		c.cfg.RedeliverAfter = 10 * time.Second
	}
	sp, err := spool.Open(spool.Options{
		Dir:          c.cfg.SpoolDir,
		Sync:         c.cfg.SpoolSync,
		SyncInterval: c.cfg.SpoolSyncInterval,
		SegmentSize:  c.cfg.SpoolSegmentSize,
		Quota:        c.cfg.SpoolQuota,
		Policy:       c.cfg.SpoolPolicy,
	})
	if err != nil {
		return fmt.Errorf("provlight: open spool: %w", err)
	}
	c.spool = sp
	return nil
}

// spoolAppend encodes records into a frame stamped with its spool
// sequence number and appends it to the WAL. This is the whole capture
// hot path in spool mode: one encode, one write(2). A frame over
// mqttsn.MaxPayload could never be published: it is refused before the
// append, and its seq is not used. Under a disk quota
// the spool's degradation policy applies: a shed frame is counted and
// silently dropped (the policy chose loss), a Block rejection propagates
// as a retryable error so the caller stalls rather than loses data.
func (c *Client) spoolAppend(records ...*provdm.Record) error {
	if c.closed.Load() {
		return fmt.Errorf("provlight: client closed")
	}
	bufp := framePool.Get().(*[]byte)
	defer framePool.Put(bufp)
	var size int
	var compressed bool
	qos0 := c.cfg.QoS <= mqttsn.QoS0
	_, err := c.spool.AppendFrame(qos0, func(seq uint64) ([]byte, error) {
		frame, err := c.enc.AppendFrameSeqCapture((*bufp)[:0], seq, c.captureNow(), records...)
		if err != nil {
			return nil, err
		}
		*bufp = frame
		if len(frame) > mqttsn.MaxPayload {
			return nil, fmt.Errorf("provlight: frame of %d bytes: %w", len(frame), mqttsn.ErrTooLarge)
		}
		size = len(frame)
		compressed = wire.IsCompressed(frame)
		return frame, nil
	})
	if errors.Is(err, spool.ErrShed) {
		c.ctr.framesShed.Add(1)
		return nil
	}
	if err != nil {
		return err
	}
	c.ctr.framesSpooled.Add(1)
	c.ctr.bytesPublished.Add(uint64(size))
	if compressed {
		c.ctr.framesCompressed.Add(1)
	}
	return nil
}

// reportAsync counts an asynchronous error in AsyncErrors and delivers it
// to OnError.
func (c *Client) reportAsync(err error) {
	c.ctr.asyncErrors.Add(1)
	c.onError(err)
}

// onError delivers err to OnError under the serialization contract.
func (c *Client) onError(err error) {
	if cb := c.cfg.OnError; cb != nil {
		c.errMu.Lock()
		cb(err)
		c.errMu.Unlock()
	}
}

// reportLost is reportAsync for n frames lost to one error (a packed
// PUBLISH): it counts one AsyncError per frame and reports err once.
func (c *Client) reportLost(n int, err error) {
	c.ctr.asyncErrors.Add(uint64(n - 1))
	c.reportAsync(err)
}

// onAck advances the spool floor from a translator acknowledgement. Runs
// on the session's read goroutine.
//
// Term fencing: the ack payload carries the replication term of the
// primary store the translator fed (0 for unfenced version-1 acks). The
// client tracks the highest term it has ever seen and drops acks from any
// lower term — after a failover, a zombie translator still applying
// frames to the deposed primary must not release spooled frames, because
// the deposed store's writes are off the promoted lineage and will be
// discarded when it rejoins. Unfenced (term 0) acks are always accepted,
// so single-node deployments behave exactly as before.
func (c *Client) onAck(_ string, payload []byte) {
	seqs, term, err := wire.DecodeAckPayload(payload)
	if err != nil {
		c.reportAsync(fmt.Errorf("provlight: bad ack payload: %w", err))
		return
	}
	if term > 0 {
		for {
			cur := c.ctr.ackTerm.Load()
			if term < cur {
				// A late copy of an ack already applied is harmless.
				if slices.ContainsFunc(seqs, func(seq uint64) bool { return !c.spool.Acked(seq) }) {
					c.ctr.staleAcks.Add(1)
				}
				return // zombie translator: ignore the whole ack
			}
			if term == cur || c.ctr.ackTerm.CompareAndSwap(cur, term) {
				break
			}
		}
	}
	for _, seq := range seqs {
		if err := c.spool.Ack(seq); err != nil {
			c.reportAsync(fmt.Errorf("provlight: ack %d: %w", seq, err))
		}
	}
}

// drainWith pumps spooled frames through one session until it dies (the
// session closes down, also when the client stops it). Frames are
// published in order within an ack window above the floor; completion of
// the QoS handshake releases the frame buffer but not the frame — only
// acks do that.
func (c *Client) drainWith(mc *mqttsn.Client, down <-chan struct{}) {
	r := c.spool.NewReader()
	defer r.Close()
	window := uint64(c.cfg.AckWindow)
	stall := time.NewTicker(c.cfg.RedeliverAfter)
	defer stall.Stop()
	// Taken before any check of the floor, and again each time it fires,
	// so no floor advance goes unseen.
	ackSig := c.spool.AckSignal()
	lastFloor := c.spool.Floor()
	var lastPub uint64
	// A configured QoS 2 is delivered end to end (see the file comment),
	// so the hop runs QoS 1.
	hopQoS := c.cfg.QoS
	if hopQoS == mqttsn.QoS2 {
		hopQoS = mqttsn.QoS1
	}

	// checkStall rewinds the reader when published frames sit unacknowledged
	// with no floor progress for a full tick: the ack was lost, or the
	// translator restarted. Redelivered frames are deduplicated
	// downstream by their durable ids. Rewinding must also reopen the
	// ack window (lastPub back to the floor): the rewound reader re-sends
	// from floor+1, and keeping the old high-water mark would wedge the
	// window-wait loop whenever an ack hole sits more than AckWindow
	// frames below the furthest publish — rewound but never re-read.
	checkStall := func() {
		floor := c.spool.Floor()
		if floor == lastFloor && lastPub > floor && c.spool.Pending() > 0 {
			r.Reset()
			lastPub = floor
			c.ctr.redeliveries.Add(1)
		}
		lastFloor = floor
	}

	for {
		select {
		case <-down:
			return
		default:
		}
		// Sliding ack window: never run more than AckWindow frames ahead
		// of the acknowledged floor.
		for lastPub >= c.spool.Floor()+window {
			select {
			case <-ackSig:
				ackSig = c.spool.AckSignal()
			case <-stall.C:
				checkStall()
			case <-down:
				return
			}
		}
		bufp := framePool.Get().(*[]byte)
		seq, frame, ok, err := r.Next((*bufp)[:0])
		if err != nil {
			framePool.Put(bufp)
			c.reportAsync(fmt.Errorf("provlight: read spool: %w", err))
			return
		}
		if !ok {
			framePool.Put(bufp)
			// Caught up: sleep until new frames, ack progress (which can
			// expose skipped frames after a Reset), or a stall tick.
			select {
			case <-c.spool.Notify():
			case <-ackSig:
				ackSig = c.spool.AckSignal()
			case <-stall.C:
				checkStall()
			case <-down:
				return
			}
			continue
		}
		*bufp = frame
		// Publish barrier: the frame must be on stable storage before the
		// server can see (and dedup-mark) its sequence number.
		if err := c.spool.EnsureSynced(seq); err != nil {
			framePool.Put(bufp)
			c.reportAsync(fmt.Errorf("provlight: sync spool before publish: %w", err))
			return
		}
		if c.stageCapture != nil {
			if ns, ok := wire.FrameCaptureNS(frame); ok {
				obs.ObserveSince(c.stageCapture, ns)
			}
		}
		// Blocks only while the transport's in-flight window is full;
		// Close/Abort unblocks it.
		mc.PublishAsync(c.topic, frame, hopQoS, func(err error) {
			framePool.Put(bufp)
			if errors.Is(err, mqttsn.ErrTooLarge) {
				// Spooled by a build that did not refuse it at capture:
				// no session can carry it, so count it lost and ack it
				// here instead of redialing for ever.
				c.reportAsync(fmt.Errorf("provlight: spooled frame %d lost: %w", seq, err))
				if err := c.spool.Ack(seq); err != nil {
					c.reportAsync(fmt.Errorf("provlight: ack %d: %w", seq, err))
				}
				return
			}
			if err != nil && !errors.Is(err, mqttsn.ErrClosed) {
				c.reportAsync(fmt.Errorf("provlight: publish spooled frame %d: %w", seq, err))
				// A handshake that exhausted its retries means the link is
				// gone: recycle the session (closing the client closes
				// down), the next one redelivers. Not from the callback
				// itself, which may run on the client's own loops.
				go mc.Close()
			}
		})
		c.ctr.framesPublished.Add(1)
		c.ctr.publishes.Add(1)
		lastPub = seq
	}
}

// waitDrained blocks until every spooled frame is acked, or ctx expires.
// It waits on AckSignal beside the drainer: the signal is a broadcast, so
// both wake on every floor advance.
func (c *Client) waitDrained(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		sig := c.spool.AckSignal()
		if c.spool.Drained() {
			return nil
		}
		select {
		case <-sig:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

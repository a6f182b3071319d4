package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/spool"
	"github.com/provlight/provlight/internal/wire"
)

// ladderRecords is how many of the workload's records the ladder drives
// through each layer.
const ladderRecords = 4000

// wireLadder encodes and decodes the workload's own records the way the
// client and translator do.
type wireLadder struct {
	encodeUS, decodeUS, frameBytes, encodeAllocs float64
}

func runWireLadder(recs []provdm.Record) (wireLadder, error) {
	n := min(len(recs), ladderRecords)
	var enc wire.Encoder
	frames := make([][]byte, n)
	buf := make([]byte, 0, 4096)
	// One untimed pass fills the encoder's pools.
	for i := 0; i < n; i++ {
		frame, err := enc.AppendFrameSeqCapture(buf[:0], 0, nanotime(), &recs[i])
		if err != nil {
			return wireLadder{}, fmt.Errorf("wire ladder: encode: %w", err)
		}
		frames[i] = append([]byte(nil), frame...)
	}
	var l wireLadder
	allocs := newAllocCounter()
	m0 := allocs.read()
	start := nanotime()
	for i := 0; i < n; i++ {
		buf, _ = enc.AppendFrameSeqCapture(buf[:0], 0, start, &recs[i])
	}
	l.encodeUS = float64(nanotime()-start) / 1e3 / float64(n)
	l.encodeAllocs = float64(allocs.read()-m0) / float64(n)
	var bytes int
	start = nanotime()
	for i := 0; i < n; i++ {
		if _, err := wire.DecodeFrame(frames[i]); err != nil {
			return wireLadder{}, fmt.Errorf("wire ladder: decode: %w", err)
		}
		bytes += len(frames[i])
	}
	l.decodeUS = float64(nanotime()-start) / 1e3 / float64(n)
	l.frameBytes = float64(bytes) / float64(n)
	return l, nil
}

// spoolLadder appends the workload's records to a fresh spool in dir and
// acknowledges them, as a spooling client's capture path and ack path
// do. It returns the mean time of one append in µs.
func spoolLadder(recs []provdm.Record, dir string) (float64, error) {
	dir = filepath.Join(dir, "ladder-spool")
	defer os.RemoveAll(dir)
	sp, err := spool.Open(spool.Options{Dir: dir})
	if err != nil {
		return 0, fmt.Errorf("spool ladder: %w", err)
	}
	n := min(len(recs), ladderRecords)
	var enc wire.Encoder
	buf := make([]byte, 0, 4096)
	var appendNS int64
	for i := 0; i < n; i++ {
		start := nanotime()
		seq, err := sp.AppendWith(func(seq uint64) ([]byte, error) {
			return enc.AppendFrameSeqCapture(buf[:0], seq, start, &recs[i])
		})
		appendNS += nanotime() - start
		if err != nil {
			sp.Close()
			return 0, fmt.Errorf("spool ladder: append: %w", err)
		}
		if err := sp.Ack(seq); err != nil {
			sp.Close()
			return 0, fmt.Errorf("spool ladder: ack: %w", err)
		}
	}
	if err := sp.Close(); err != nil {
		return 0, fmt.Errorf("spool ladder: %w", err)
	}
	return float64(appendNS) / 1e3 / float64(n), nil
}

// snapshotLadder times one full snapshot of the live store.
func snapshotLadder(store *dfanalyzer.Store) (time.Duration, error) {
	start := time.Now()
	if err := store.Snapshot(); err != nil {
		return 0, fmt.Errorf("snapshot ladder: %w", err)
	}
	return time.Since(start), nil
}

package main

import (
	"os"
	"runtime/metrics"
	"syscall"
	"time"
)

// sample is the process and machine counters at one phase boundary.
type sample struct {
	at      int64 // nanotime
	cpu     time.Duration
	applied int64
	mallocs uint64
	ticks   cpuTicks
}

// allocCounter reads the process's heap allocation count through
// runtime/metrics, which, unlike runtime.ReadMemStats, does not stop the
// world.
type allocCounter struct{ samples []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.samples)
	var n uint64
	for _, s := range a.samples {
		if s.Value.Kind() == metrics.KindUint64 {
			n += s.Value.Uint64()
		}
	}
	return n
}

// gcCycles is how many GC cycles the process has completed.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// statReader reads /proc/stat into a fixed buffer, so that sampling at
// the load window's edges allocates nothing.
type statReader struct {
	f   *os.File
	buf []byte
}

func openStat() *statReader {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return &statReader{}
	}
	return &statReader{f: f, buf: make([]byte, 4096)}
}

func (r *statReader) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// read parses the first ("cpu") line: total and steal ticks.
func (r *statReader) read() cpuTicks {
	if r.f == nil {
		return cpuTicks{}
	}
	n, _ := r.f.ReadAt(r.buf, 0)
	var t cpuTicks
	field := -1 // fields after the "cpu" label
	var v uint64
	inNum := false
	for _, c := range r.buf[:n] {
		if c >= '0' && c <= '9' {
			v = v*10 + uint64(c-'0')
			inNum = true
			continue
		}
		if inNum {
			field++
			if field < 8 { // user nice system idle iowait irq softirq steal
				t.total += v
			}
			if field == 7 {
				t.steal = v
			}
			v, inNum = 0, false
		}
		if c == '\n' {
			break
		}
	}
	return t
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the machine-wide /proc/stat "cpu" line: total ticks and
// ticks stolen by the hypervisor.
type cpuTicks struct{ total, steal uint64 }

// stealShare is the share of machine CPU time stolen between a and b.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// runContext describes the machine and build a result came from.
func runContext(seed int64, commit string) map[string]any {
	ctx := map[string]any{
		"seed":       seed,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"commit":     commit,
		"max_rss_mb": maxRSSMB(),
	}
	return ctx
}

// maxRSSMB is the process's peak resident set size (VmHWM) in MiB, 0
// when unknown.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

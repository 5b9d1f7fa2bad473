package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bcc/internal/stats"
)

// The host-disturbance probe. On the reference host a single-threaded,
// L1-resident loop slows by 25-30 % in episodes of 1.5-2 s covering about a
// third of the wall. The probe times such a loop in fixed-work slices before
// and after the timed pass so that a noisy run can be recognised as one; its
// numbers are diagnostics and never normalise or discard a measurement.

const (
	probeSlices    = 10      // slices per probe, about 10 ms each
	probeSliceMAdd = 6 << 20 // multiply-adds per slice
)

// probeSlice runs one fixed-work slice over a 2 KB array and returns its
// duration in ms.
func probeSlice(x *[256]float64) float64 {
	start := time.Now()
	a := 1.0000001
	for rep := 0; rep < probeSliceMAdd/len(x); rep++ {
		for i := range x {
			x[i] = x[i]*a + 1e-9
		}
	}
	return float64(time.Since(start)) / 1e6
}

// hostProbe runs probeSlices slices and appends their durations to dst.
func hostProbe(dst []float64) []float64 {
	var x [256]float64
	for i := 0; i < probeSlices; i++ {
		dst = append(dst, probeSlice(&x))
	}
	sink += x[0]
	return dst
}

// hostMetrics summarises the probe slices: the median slice time and the
// share of slices more than 10 % above the fastest one.
func hostMetrics(slices []float64) map[string]metric {
	fastest, disturbed := stats.Min(slices), 0
	for _, d := range slices {
		if d > 1.1*fastest {
			disturbed++
		}
	}
	return map[string]metric{
		"host.calib_fma_ms":          {stats.Median(slices), "ms"},
		"host.calib_disturbed_share": {float64(disturbed) / float64(len(slices)), "ratio"},
		"host.rss_peak_mb":           {rssPeakMB(), "MB"},
		"host.gomaxprocs":            {float64(runtime.GOMAXPROCS(0)), "count"},
	}
}

// rssPeakMB reads the process's peak resident set (VmHWM) from /proc; 0 when
// the file is unavailable.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

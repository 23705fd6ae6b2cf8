package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// highestPercentile returns the highest whole percentile with at least
// tailSamples samples beyond it among n samples, or 0 when n is too small
// for any.
func highestPercentile(n int) int {
	for p := 99; p >= 1; p-- {
		if n-rank(float64(p), n) >= tailSamples {
			return p
		}
	}
	return 0
}

// median returns the median of samples (mean of the middle two for an
// even count).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of samples, computed like
// Python's statistics.quantiles(samples, n=4) with its default exclusive
// method. It needs at least two samples.
func quartiles(samples []float64) (q1, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// resetPeakRSS returns freed memory to the operating system and resets the
// process's peak resident set to its current size, so that peakRSSMB
// afterwards covers only what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

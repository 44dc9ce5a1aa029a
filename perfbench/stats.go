package main

import (
	"fmt"
	"os"
	"slices"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// blockMs is the operation time, in ms, each throughput block covers.
const blockMs = 2000

// blockRate cuts the operation times opMs, in the order they ran, into
// consecutive blocks of at least minMs of operation time and returns the
// median over the blocks of operations per second of operation time. A
// short final block is dropped unless it is the only one. The median
// keeps a few seconds of a slowed host, or a run of costly operations,
// from moving the whole run's figure.
func blockRate(opMs []float64, minMs float64) float64 {
	var rates []float64
	sum, n := 0.0, 0
	for i, d := range opMs {
		sum += d
		n++
		if sum >= minMs || (i == len(opMs)-1 && len(rates) == 0) {
			rates = append(rates, float64(n)*1e3/sum)
			sum, n = 0, 0
		}
	}
	return median(rates)
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1)
// and the number of samples strictly above it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(float64(len(s))*p+0.999999) - 1
	i = max(0, min(i, len(s)-1))
	for j := i + 1; j < len(s); j++ {
		if s[j] > s[i] {
			beyond++
		}
	}
	return s[i], beyond
}

// minTailBeyond is the number of samples a reported tail percentile
// must have above it.
const minTailBeyond = 10

// tail reports the workload's fixed tail percentile of xs, warning on
// standard error when fewer than minTailBeyond samples lie beyond it.
func tail(name string, xs []float64, p float64) float64 {
	v, beyond := percentile(xs, p)
	fmt.Fprintf(os.Stderr, "perfbench: %s p%g = %.4g over %d samples (%d beyond)\n", name, p*100, v, len(xs), beyond)
	if beyond < minTailBeyond {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s p%g has only %d samples beyond it\n", name, p*100, beyond)
	}
	return v
}

// overheadFrac compares the same operation timed with and without span
// recording: median(traced)/median(untraced) - 1.
func overheadFrac(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return median(traced)/u - 1
}

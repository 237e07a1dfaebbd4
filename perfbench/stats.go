package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// samples is a set of durations, summarized by nearest-rank percentiles.
type samples []time.Duration

// pct returns the nearest-rank p-quantile (0 < p <= 1) in milliseconds.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(float64(len(c))*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return ms(c[i])
}

// pctUS is pct in microseconds.
func (s samples) pctUS(p float64) float64 { return s.pct(p) * 1000 }

// supported states on standard error how many samples lie beyond the
// p-quantile of n, and warns when fewer than ten do.
func supported(what string, n int, p float64) {
	beyond := int(float64(n) * (1 - p))
	fmt.Fprintf(os.Stderr, "perfbench: %s p%.0f over %d samples (%d beyond)\n", what, p*100, n, beyond)
	if beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s p%.0f has fewer than 10 samples beyond it\n", what, p*100)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a set of values (the mean of the middle two for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import "runtime/metrics"

// gcSample holds the runtime/metrics counters the benchmark reads.
type gcSample struct {
	allocBytes    float64 // cumulative heap allocation
	gcCPU, allCPU float64 // cumulative GC and total CPU seconds, as the runtime estimates them
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return gcSample{allocBytes: val(0), gcCPU: val(1), allCPU: val(2)}
}

func (g gcSample) sub(b gcSample) gcSample {
	return gcSample{allocBytes: g.allocBytes - b.allocBytes, gcCPU: g.gcCPU - b.gcCPU, allCPU: g.allCPU - b.allCPU}
}

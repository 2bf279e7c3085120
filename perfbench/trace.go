package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer. Spans of one query share the query's root; parent -1 marks a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(name string, parent int, start, end time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// selfTimes returns each span's self time, indexed by span ID: its duration
// minus the part of its interval that its children cover. Overlapping
// children are merged first, so concurrent children are not subtracted
// twice, and children are clipped to the parent's interval.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s, kids[i])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// within the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name          string
	Count         int
	Total, Self   time.Duration
	P50, P99, Max time.Duration
}

// summarize groups spans by name, in order of first appearance.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanSummary
	durs := map[string][]float64{}
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanSummary{Name: s.Name})
		}
		d := s.End - s.Start
		out[j].Count++
		out[j].Total += d
		out[j].Self += self[i]
		durs[s.Name] = append(durs[s.Name], float64(d))
	}
	for j := range out {
		d := sortedCopy(durs[out[j].Name])
		out[j].P50 = time.Duration(percentile(d, 50))
		out[j].P99 = time.Duration(percentile(d, 99))
		out[j].Max = time.Duration(d[len(d)-1])
	}
	return out
}

// writeSummary prints the per-name table a trace is read by.
func writeSummary(w io.Writer, sums []spanSummary) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %10s %10s %10s\n", "span", "count", "total_ms", "self_ms", "p50_us", "p99_us", "max_us")
	for _, s := range sums {
		fmt.Fprintf(w, "%-28s %8d %12.1f %12.1f %10.1f %10.1f %10.1f\n", s.Name, s.Count,
			ms(s.Total), ms(s.Self), us(s.P50), us(s.P99), us(s.Max))
	}
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

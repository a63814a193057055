package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ilplimit/internal/limits"
	"ilplimit/internal/stats"
	"ilplimit/internal/telemetry"
)

// stageTimer starts timing one pipeline stage and returns the function
// that stops it, accumulating into scope's "stage.<name>_ns" counter.
// With telemetry off (nil scope) it costs nothing — not even a clock
// read.
func stageTimer(scope *telemetry.Registry, name string) func() {
	if scope == nil {
		return func() {}
	}
	c := scope.Counter("stage." + name + "_ns")
	start := time.Now()
	return func() { c.AddDuration(time.Since(start)) }
}

// recordAnalyzer publishes one analyzer's schedule outcome —
// "analyzer.<MODEL>.<unrolled|plain>.cycles" and ".instructions" — the
// per-analyzer half of the catalogue (the per-consumer ring stall
// counters are keyed by worker id; see DESIGN.md §9 for the id↔model
// mapping).
func recordAnalyzer(scope *telemetry.Registry, r limits.Result) {
	if scope == nil {
		return
	}
	cfg := "plain"
	if r.Unrolled {
		cfg = "unrolled"
	}
	a := scope.WithPrefix("analyzer." + r.Model.String() + "." + cfg + ".")
	a.Counter("cycles").Add(r.Cycles)
	a.Counter("instructions").Add(r.Instructions)
}

// stageColumns is the rendering order of the per-benchmark stage-timing
// table.  A live run fills profile and analyze, a warm trace-store run
// fills cached_replay instead; "wall" covers the whole pipeline
// including the untimed gaps between stages.
var stageColumns = []string{"compile", "optimize", "profile", "static", "analyze", "cached_replay", "wall"}

// MetricsReport renders a telemetry snapshot as the human-readable
// stage-timing report behind `ilplimit -metrics`: one row per benchmark
// with stage wall times, then aggregate VM throughput and replay-ring
// statistics (occupancy high-water mark, stall counts, chunk broadcast
// latency distribution).  Metric names may carry "bench.<name>."
// prefixes (suite snapshots) or not (single-benchmark snapshots); both
// render.  An empty or nil snapshot yields an explanatory line.
func MetricsReport(s *telemetry.Snapshot) string {
	if s == nil {
		return "telemetry: no metrics collected (enable with -metrics or Options.Metrics)\n"
	}

	// Group per-benchmark metrics: bare names belong to the pseudo
	// benchmark "" (single-bench snapshots after Filter).
	perBench := map[string]map[string]int64{}
	var rest []string // non-stage counter names, fully qualified
	for name, v := range s.Counters {
		benchName, sub := "", name
		if strings.HasPrefix(name, "bench.") {
			if i := strings.Index(name[6:], "."); i >= 0 {
				benchName, sub = name[6:6+i], name[6+i+1:]
			}
		}
		if strings.HasPrefix(sub, "stage.") && strings.HasSuffix(sub, "_ns") {
			m := perBench[benchName]
			if m == nil {
				m = map[string]int64{}
				perBench[benchName] = m
			}
			m[strings.TrimSuffix(strings.TrimPrefix(sub, "stage."), "_ns")] = v
			continue
		}
		rest = append(rest, name)
	}

	var b strings.Builder
	if len(perBench) > 0 {
		t := &stats.Table{
			Title:   "Pipeline stage timings (ms)",
			Headers: append([]string{"Benchmark"}, stageColumns...),
		}
		names := make([]string, 0, len(perBench))
		for n := range perBench {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			row := []string{n}
			if n == "" {
				row[0] = "(run)"
			}
			for _, col := range stageColumns {
				if v, ok := perBench[n][col]; ok {
					row = append(row, fmt.Sprintf("%.1f", float64(v)/1e6))
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
		b.WriteString(t.Render())
	}

	// Aggregate VM throughput per pass and ring statistics across
	// benchmarks; suffix matching folds the "bench.<name>." scopes.
	sum := func(suffix string) int64 {
		var total int64
		for _, name := range rest {
			if strings.HasSuffix(name, suffix) {
				total += s.Counters[name]
			}
		}
		return total
	}
	for _, pass := range []string{"profile", "analysis"} {
		instrs := sum("vm." + pass + ".instructions")
		ns := sum("vm." + pass + ".run_ns")
		if instrs > 0 && ns > 0 {
			fmt.Fprintf(&b, "vm %-8s %12d instrs in %8.1f ms  (%.1f Minstr/s)\n",
				pass, instrs, float64(ns)/1e6, float64(instrs)/(float64(ns)/1e3))
		}
	}
	if dec := sum("decode.events"); dec > 0 {
		var lanes int64
		for name, v := range s.Gauges {
			if strings.HasSuffix(name, "decode.lanes") && v > lanes {
				lanes = v
			}
		}
		fmt.Fprintf(&b, "decode      %12d events annotated once (%d branches, %d mispredict flags, %d predictor lane(s))\n",
			dec, sum("decode.branches"), sum("decode.mispredict_flags"), lanes)
	}
	if chunks := sum("ring.chunks"); chunks > 0 {
		var hwm int64
		for name, v := range s.Gauges {
			if strings.HasSuffix(name, "ring.occupancy_hwm") && v > hwm {
				hwm = v
			}
		}
		fmt.Fprintf(&b, "ring        %12d chunks (%d events), occupancy high-water %d/%d slots\n",
			chunks, sum("ring.events"), hwm, limits.RingSlots)
		fmt.Fprintf(&b, "            %d producer stalls, %d consumer stalls, %d detaches\n",
			sum("ring.producer_stalls"), sum("ring.consumer_stalls"), sum("ring.detaches"))
		b.WriteString(latencyLine(s))
	}
	if b.Len() == 0 {
		return "telemetry: snapshot holds no pipeline metrics\n"
	}
	return b.String()
}

// latencyLine folds every ring.chunk_latency_ns histogram in the
// snapshot into one bucket line.
func latencyLine(s *telemetry.Snapshot) string {
	var bounds []int64
	var counts []int64
	var total int64
	for name, h := range s.Histograms {
		if !strings.HasSuffix(name, "ring.chunk_latency_ns") {
			continue
		}
		if bounds == nil {
			bounds = h.Bounds
			counts = make([]int64, len(h.Counts))
		}
		for i, c := range h.Counts {
			counts[i] += c
		}
		total += h.Count
	}
	if total == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("chunk broadcast latency:")
	for i, c := range counts {
		if c == 0 {
			continue
		}
		label := "+"
		if i < len(bounds) {
			label = "<=" + shortDuration(bounds[i])
		} else {
			label = ">" + shortDuration(bounds[len(bounds)-1])
		}
		fmt.Fprintf(&b, " %s:%d", label, c)
	}
	b.WriteString("\n")
	return b.String()
}

// shortDuration formats a nanosecond bound compactly (1ms, 10µs, 1s).
func shortDuration(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%gs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%gms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%gµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

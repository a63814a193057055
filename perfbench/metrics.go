package main

import (
	"runtime"
	"strings"
	"time"

	"ilplimit/internal/bench"
	"ilplimit/internal/limits"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndMetrics are the metrics of a timed run (-trace 0).
func endToEndMetrics() []metricDef {
	return []metricDef{
		{"pass_s", "s", "lower"},
		{"pass_s.tail", "s", "lower"},
		{"minstr_per_s", "Minstr/s", "higher"},
		{"cpu_s", "s", "lower"},
		{"peak_rss_mb", "MB", "lower"},
		{"setup_s", "s", "lower"},
	}
}

// perLayerMetrics are the metrics of a traced run (-trace 1).
func perLayerMetrics() []metricDef {
	var out []metricDef
	for _, b := range bench.All() {
		out = append(out, metricDef{"harness.bench_s." + metricName(b.Name), "s", "lower"})
	}
	out = append(out,
		metricDef{"harness.jobs_util", "ratio", "higher"},
		metricDef{"minic.compile_ms", "ms", "lower"},
		metricDef{"asm.assemble_ms", "ms", "lower"},
		metricDef{"limits.static_ms", "ms", "lower"},
		metricDef{"vm.minstr_per_s", "Minstr/s", "higher"},
		metricDef{"vm.profile_ms", "ms", "lower"},
		metricDef{"limits.annotate_ns_per_event", "ns", "lower"},
		metricDef{"limits.replay_s", "s", "lower"},
		metricDef{"limits.fanout_speedup", "ratio", "higher"},
		metricDef{"limits.ring_producer_stalls", "count", "lower"},
		metricDef{"limits.ring_consumer_stalls", "count", "lower"},
	)
	for _, unrolled := range []bool{true, false} {
		for _, m := range limits.AllModels() {
			out = append(out, metricDef{"limits.step_ns_per_event." + stepLabel(m, unrolled), "ns", "lower"})
		}
	}
	out = append(out,
		metricDef{"limits.step_ns_per_event.window", "ns", "lower"},
		metricDef{"tracestore.open_ms", "ms", "lower"},
		metricDef{"tracestore.read_mb_per_s", "MB/s", "higher"},
		metricDef{"tracestore.write_mb_per_s", "MB/s", "higher"},
		metricDef{"tracestore.commit_ms", "ms", "lower"},
		metricDef{"harness.unaccounted_frac", "ratio", "lower"},
		metricDef{"tracing.overhead_frac", "ratio", "lower"},
	)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics derives the per-layer metrics of a traced run.  Layer
// costs are totals over the workload's benchmarks, so each reads as its
// serial cost in one pass.
func layerMetrics(w *workload, layers []benchLayers, spans []span, passes []int,
	untraced, traced *passLog) map[string]metric {
	var t benchLayers // totals
	var steps [2][]time.Duration
	for _, l := range layers {
		t.events += l.events
		t.compile += l.compile
		t.assemble += l.assemble
		t.vmNoop += l.vmNoop
		t.profile += l.profile
		t.static += l.static
		t.annotate += l.annotate
		t.window += l.window
		t.windows = l.windows
		t.write += l.write
		t.commit += l.commit
		t.open += l.open
		t.bytes += l.bytes
		t.serialReplay += l.serialReplay
		t.replay += l.replay
		t.producerStalls += l.producerStalls
		t.consumerStalls += l.consumerStalls
		for u := range steps {
			if steps[u] == nil {
				steps[u] = make([]time.Duration, len(l.step[u]))
			}
			for i, d := range l.step[u] {
				steps[u][i] += d
			}
		}
	}
	out := make(map[string]metric)
	put := func(name string, v float64) {
		for _, d := range perLayerMetrics() {
			if d.Name == name {
				out[name] = metric{v, d.Unit}
				return
			}
		}
		panic("perfbench: undeclared metric " + name)
	}
	perEvent := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Benchmark spans of the traced passes.
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	benchDur := make(map[string][]float64)
	var util []float64
	for _, p := range passes {
		var sum time.Duration
		for _, s := range spans {
			if s.Parent == p && strings.HasPrefix(s.Name, "bench ") {
				benchDur[strings.TrimPrefix(s.Name, "bench ")] = append(benchDur[strings.TrimPrefix(s.Name, "bench ")], s.dur().Seconds())
				sum += s.dur()
			}
		}
		util = append(util, sum.Seconds()/(byID[p].dur().Seconds()*float64(runtime.GOMAXPROCS(0))))
	}
	for _, b := range bench.All() {
		put("harness.bench_s."+metricName(b.Name), median(benchDur[metricName(b.Name)]))
	}
	put("harness.jobs_util", median(util))

	put("minic.compile_ms", ms(t.compile))
	put("asm.assemble_ms", ms(t.assemble))
	put("limits.static_ms", ms(t.static))
	put("vm.minstr_per_s", ratio(float64(t.events)/1e6, t.vmNoop.Seconds()))
	put("vm.profile_ms", ms(t.profile))
	put("limits.annotate_ns_per_event", perEvent(t.annotate, t.events))
	put("limits.replay_s", t.replay.Seconds())
	put("limits.fanout_speedup", ratio(t.serialReplay.Seconds(), t.replay.Seconds()))
	put("limits.ring_producer_stalls", float64(t.producerStalls))
	put("limits.ring_consumer_stalls", float64(t.consumerStalls))
	var stepSum time.Duration
	for u, unrolled := range []bool{true, false} {
		for i, m := range limits.AllModels() {
			var d time.Duration
			if i < len(steps[u]) {
				d = steps[u][i]
			}
			stepSum += d
			put("limits.step_ns_per_event."+stepLabel(m, unrolled), perEvent(d, t.events))
		}
	}
	put("limits.step_ns_per_event.window", perEvent(t.window, t.events*int64(max(t.windows, 1))))

	put("tracestore.open_ms", ms(t.open))
	put("tracestore.read_mb_per_s", ratio(float64(t.bytes)/1e6, t.open.Seconds()))
	put("tracestore.write_mb_per_s", ratio(float64(t.bytes)/1e6, t.write.Seconds()))
	put("tracestore.commit_ms", ms(t.commit))

	// Serial cost of one pass: the layer calls that pass makes.
	var serial time.Duration
	switch w.name {
	case "suite-live":
		serial = t.compile + t.assemble + t.profile + t.static + t.vmNoop + t.annotate + stepSum
	case "study-window":
		var spcdmf time.Duration
		for i, m := range limits.AllModels() {
			if m == limits.SPCDMF && i < len(steps[0]) {
				spcdmf = steps[0][i]
			}
		}
		serial = t.compile + t.assemble + t.profile + t.static + t.vmNoop + t.annotate + spcdmf + t.window
	}
	put("harness.unaccounted_frac", 1-ratio(serial.Seconds(), median(untraced.cpu)))
	put("tracing.overhead_frac", ratio(median(traced.wall), median(untraced.wall))-1)
	return out
}

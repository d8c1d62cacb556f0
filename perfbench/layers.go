package main

import "time"

// layerMetrics derives the per-layer metrics from a traced run's spans.
// Layers a workload does not exercise report 0; the serve runners fill in
// the metrics measured against a live daemon.
func layerMetrics(t *tracer) map[string]metric {
	wall := t.spans[0].dur()
	total := func(name string) time.Duration { d, _ := t.total(name); return d }
	perEvent := func(d time.Duration, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / n
	}
	tryn, calls := t.total("core.tryn")
	gen, kern, ic := total("trace.gen"), total("kernel.run"), total("icache.replay")
	genEvents, kernEvents := t.attrSum("trace.gen", "events"), t.attrSum("kernel.run", "events")
	return map[string]metric{
		"core.tryn_ms":                {ms(tryn), "ms"},
		"core.tryn_calls":             {float64(calls), "count"},
		"core.tryn_alloc_mb":          {t.attrSum("core.tryn", "alloc_bytes") / (1 << 20), "MB"},
		"core.tryn_share":             {tryn.Seconds() / wall.Seconds(), "ratio"},
		"core.greedy_ms":              {ms(total("core.greedy")), "ms"},
		"core.cost_ms":                {ms(total("core.cost")), "ms"},
		"core.exttsp_ms":              {ms(total("core.exttsp")), "ms"},
		"trace.gen_ms":                {ms(gen), "ms"},
		"trace.events":                {genEvents, "count"},
		"trace.gen_ns_per_event":      {perEvent(gen, genEvents), "ns"},
		"kernel.run_ms":               {ms(kern), "ms"},
		"kernel.events":               {kernEvents, "count"},
		"kernel.ns_per_event":         {perEvent(kern, kernEvents), "ns"},
		"icache.ms":                   {ms(ic), "ms"},
		"icache.ns_per_fetch":         {perEvent(ic, t.attrSum("icache.replay", "fetches")), "ns"},
		"sim.stream_ms":               {ms(total("sim.stream")), "ms"},
		"workload.profile_ms":         {ms(total("workload.profile")), "ms"},
		"serve.key_us":                {float64(percentile(t.durations("serve.key"), 0.5)) / 1e3, "us"},
		"serve.handler_ms":            {ms(percentile(t.durations("serve.handler"), 0.5)), "ms"},
		"serve.transport_ms":          {0, "ms"},
		"router.hop_ms":               {0, "ms"},
		"serve.cache_hit_ratio":       {0, "ratio"},
		"serve.rejected":              {0, "count"},
		"router.retries":              {0, "count"},
		"experiments.unattributed_ms": {ms(t.unattributed()), "ms"},
	}
}

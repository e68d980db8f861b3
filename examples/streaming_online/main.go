// Streaming online mode: Section II-A's second operating mode. New raw
// values arrive one at a time; for each value the engine infers the density,
// generates the view rows immediately (served from the sigma-cache when the
// inferred volatility falls in the expected band), and extends the
// materialised probabilistic view.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/dataset"
)

func main() {
	const h = 90

	// The "historical" prefix seeds the raw table; the rest is streamed.
	campus := dataset.Campus(dataset.CampusConfig{N: 600})
	vals := campus.Values()

	engine := repro.NewEngine()
	warm, err := campus.Slice(0, h)
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.RegisterSeries("live_temps", warm); err != nil {
		log.Fatal(err)
	}

	stream, err := engine.OpenStream(repro.StreamConfig{
		Source:   "live_temps",
		ViewName: "live_view",
		Omega:    repro.Omega{Delta: 0.25, N: 16},
		H:        h,
		// Online queries run forever, so the sigma-cache is sized up front
		// for the expected volatility band; out-of-band values are computed
		// directly (correct, just slower).
		SigmaRange: &repro.SigmaRange{Min: 0.05, Max: 10, DistanceConstraint: 0.01},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streaming %d values through %s...\n", len(vals)-h, stream.MetricName())
	for i := h; i < len(vals); i++ {
		rows, err := stream.Step(repro.Point{T: int64(i + 1), V: vals[i]})
		if err != nil {
			log.Fatal(err)
		}
		// Print a heartbeat every 100 steps: the most probable range.
		if (i-h)%100 == 99 {
			top, err := repro.TopK(rows, 1)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  t=%4d raw=%7.2f -> P(%.2f < R <= %.2f) = %.3f\n",
				i+1, vals[i], top[0].Lo, top[0].Hi, top[0].Prob)
		}
	}

	st := stream.CacheStats()
	fmt.Printf("\nsigma-cache: %d entries, %d hits, %d misses (%.1f%% hit rate)\n",
		st.Entries, st.Hits, st.Misses, 100*float64(st.Hits)/float64(st.Hits+st.Misses))

	pv, err := engine.View("live_view")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("materialised view: %d rows over %d tuples\n", pv.NumRows(), pv.NumTimes())
}

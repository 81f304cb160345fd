package experiments

import (
	"fmt"
	"math"
	"time"

	"tap/internal/id"
	"tap/internal/pastry"
	"tap/internal/rng"
	"tap/internal/trace"
)

// ExtScaleParams configures the scaling experiment: overlay build and
// routing throughput as the network grows toward the million-node mark,
// with the mean hop count checked against Pastry's log_{2^b} N bound
// (the paper's §3 premise that TAP inherits).
type ExtScaleParams struct {
	Sizes  []int         // network sizes to sweep
	Routes int           `count:""` // measured routes per size
	Seed   uint64        // root random seed
	Budget time.Duration // optional wall-clock cap for the whole sweep
}

func (p ExtScaleParams) withDefaults() ExtScaleParams {
	if len(p.Sizes) == 0 {
		p.Sizes = []int{1_000, 10_000, 100_000, 1_000_000}
	}
	if p.Routes == 0 {
		p.Routes = 10_000
	}
	if p.Seed == 0 {
		p.Seed = 2004
	}
	return p
}

// Series names for the scaling experiment.
const (
	SeriesMeanHops  = "mean hops"
	SeriesHopConst  = "c = hops/log16(N)"
	SeriesBuildSec  = "build s"
	SeriesRoutesSec = "routes/s"
)

// ExtScale builds one overlay per size — all inside a single scratch
// arena, so each build reuses the previous one's memory the way
// Monte-Carlo trials do — and measures build time, routing throughput,
// and mean hop count over Routes random lookups. Hops and the derived
// hop constant are deterministic in Seed; the timing columns are wall
// clock. Exceeding Budget (when set) aborts the sweep with an error
// naming the offending size, which is what lets CI pin a scale floor.
func ExtScale(p ExtScaleParams) (*trace.Table, error) {
	if err := refuseNegative("ext-scale", p); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	tbl := trace.NewTable(
		fmt.Sprintf("Ext: scaling — build and route cost vs network size (routes=%d)", p.Routes),
		"N", SeriesMeanHops, SeriesHopConst, SeriesBuildSec, SeriesRoutesSec)
	root := rng.New(p.Seed)
	mem := pastry.NewScratch()
	start := time.Now()
	for _, n := range p.Sizes {
		stream := root.SplitN("extscale", n)
		buildStart := time.Now()
		ov, err := pastry.BuildInto(mem, pastry.DefaultConfig(), n, stream.Split("overlay"))
		if err != nil {
			return nil, fmt.Errorf("experiments: ext-scale N=%d: %w", n, err)
		}
		buildSec := time.Since(buildStart).Seconds()

		routeStream := stream.Split("routes")
		totalHops := 0
		routeStart := time.Now()
		for r := 0; r < p.Routes; r++ {
			src := ov.RandomLive(routeStream)
			var key id.ID
			routeStream.Bytes(key[:])
			_, hops, err := ov.Lookup(src.Ref().Addr, key)
			if err != nil {
				return nil, fmt.Errorf("experiments: ext-scale N=%d route %d: %w", n, r, err)
			}
			totalHops += hops
		}
		routeSec := time.Since(routeStart).Seconds()

		meanHops := float64(totalHops) / float64(p.Routes)
		x := float64(n)
		tbl.Add(x, SeriesMeanHops, meanHops)
		tbl.Add(x, SeriesHopConst, meanHops/(math.Log(x)/math.Log(16)))
		tbl.Add(x, SeriesBuildSec, buildSec)
		tbl.Add(x, SeriesRoutesSec, float64(p.Routes)/routeSec)

		if p.Budget > 0 {
			if elapsed := time.Since(start); elapsed > p.Budget {
				return tbl, fmt.Errorf("experiments: ext-scale exceeded budget %v at N=%d (elapsed %v)",
					p.Budget, n, elapsed.Round(time.Millisecond))
			}
		}
	}
	return tbl, nil
}

package experiments

import (
	"fmt"
	"math"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "weaklines",
		Title: "Boot-time calibration: the weak line that guides each voltage domain",
		Paper: "Section III-C",
		Run:   runWeakLines,
	})
	register(Experiment{
		ID:    "errprofile",
		Title: "Correctable-error profile reconstructed from the machine-check log",
		Paper: "Section IV-A4",
		Run:   runErrProfile,
	})
}

// runWeakLines runs the §III-C boot-time calibration at the low-voltage
// point and dumps the resulting weak-line map: for every voltage domain,
// the cache line whose ECC monitor will guide speculation, its onset
// voltage, and how that onset compares to the domain's crash-relevant
// floors — the line's weakest cell, its double-bit (uncorrectable)
// point, and the core's logic floor.
func runWeakLines(o Options) (*Result, error) {
	c := newChip(o, true)
	parkAll(c, o.Seed)
	assigns, err := control.New(c, control.DefaultConfig()).Calibrate()
	if err != nil {
		return nil, err
	}
	tbl := NewTextTable("domain", "line", "onset", "weakest Vcrit", "double-bit", "logic floor", "margin")
	metrics := map[string]float64{}
	minMargin := math.Inf(1)
	for _, a := range assigns {
		co := c.Cores[a.Core]
		p := co.CacheOf(a.Kind).Array().LineProfile(a.Set, a.Way)
		margin := a.OnsetV - math.Max(p.PairVcrit(), co.LogicVmin())
		tbl.AddRow(fmt.Sprintf("%d", a.Domain),
			fmt.Sprintf("core %d %s set %d way %d", a.Core, a.Kind, a.Set, a.Way),
			fmt.Sprintf("%.3f V", a.OnsetV),
			fmt.Sprintf("%.3f V", p.Vmax()),
			fmt.Sprintf("%.3f V", p.PairVcrit()),
			fmt.Sprintf("%.3f V", co.LogicVmin()),
			fmt.Sprintf("%.0f mV", 1000*margin))
		metrics[fmt.Sprintf("onset_d%d", a.Domain)] = a.OnsetV
		metrics[fmt.Sprintf("margin_d%d", a.Domain)] = margin
		minMargin = math.Min(minMargin, margin)
	}
	metrics["min_margin"] = minMargin
	return &Result{
		ID: "weaklines", Title: "Weak-line map after boot-time calibration",
		Headline: fmt.Sprintf("%s point, %d domains calibrated; smallest speculation margin below onset %.0f mV",
			c.P.Point.Name, len(assigns), 1000*minMargin),
		Table:   tbl,
		Metrics: metrics,
	}, nil
}

// runErrProfile reproduces the §IV-A4 characterization: run the stress
// test on every core 150 mV below nominal for two simulated seconds
// (reviving cores that crash, as a reboot loop would), then reconstruct
// from the machine-check log which cache lines reported errors and how
// often. The same few lines dominating the profile is the determinism
// the speculation design rests on.
func runErrProfile(o Options) (*Result, error) {
	const offsetV = 0.150
	const topLines = 12
	c := newChip(o, true)
	for _, co := range c.Cores {
		co.SetWorkload(workload.StressTest(), o.Seed)
	}
	for _, d := range c.Domains {
		d.Rail.SetTarget(c.P.Point.NominalVdd - offsetV)
	}
	ticks := o.scale(int(2.0/c.P.TickSeconds), 200)
	engine.Ticks(c, nil, ticks, func(_ int, _ chip.TickReport, _ []control.Action) bool {
		for _, co := range c.Cores {
			if !co.Alive() {
				co.Revive()
			}
		}
		return true
	})

	reported, folded := c.MCA.Counts()
	prof := c.MCA.Profile()
	tbl := NewTextTable("core", "bank", "set", "way", "reports", "events")
	total, top := 0, 0
	for i, pe := range prof {
		total += pe.Total
		if i < topLines {
			top += pe.Total
			tbl.AddRow(fmt.Sprintf("core%d", pe.Core), pe.Bank,
				fmt.Sprintf("%d", pe.Set), fmt.Sprintf("%d", pe.Way),
				fmt.Sprintf("%d", pe.Events), fmt.Sprintf("%d", pe.Total))
		}
	}
	topShare := 0.0
	if total > 0 {
		topShare = float64(top) / float64(total)
	}
	l2Lines := c.P.Hier.L2D.Sets*c.P.Hier.L2D.Ways + c.P.Hier.L2I.Sets*c.P.Hier.L2I.Ways
	return &Result{
		ID: "errprofile", Title: "Machine-check error profile",
		Headline: fmt.Sprintf("%.0f mV below nominal for %.1f s: %d reports logged, %d raw events folded by CMCI throttling; %d distinct lines (of %d L2 lines per core), top %d carry %.0f%% of events",
			1000*offsetV, float64(ticks)*c.P.TickSeconds, reported, folded,
			len(prof), l2Lines, topLines, 100*topShare),
		Table: tbl,
		Metrics: map[string]float64{
			"reports":        float64(reported),
			"folded":         float64(folded),
			"distinct_lines": float64(len(prof)),
			"top_share":      topShare,
		},
	}, nil
}

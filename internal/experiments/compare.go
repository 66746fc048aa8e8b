package experiments

import (
	"fmt"

	"eccspec/internal/alt"
	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/firmware"
)

func init() {
	register(Experiment{
		ID:    "compare",
		Title: "Margin-reduction techniques compared on one chip (related work, §VI)",
		Paper: "Section VI",
		Run:   runCompare,
	})
}

// compareOutcome summarizes one technique's run.
type compareOutcome struct {
	name      string
	avgV      float64
	reduction float64
	epw       float64 // energy per unit work
	work      float64
}

// runCompare executes five margin-management strategies on identical
// chips under the SPECint mix: no speculation, a critical-path-monitor
// scheme (Lefurgy-style), the firmware ECC baseline [4], the paper's
// hardware ECC monitors, and Razor-style detect-and-replay. It reports
// where each settles and what it costs — the quantitative version of the
// paper's related-work discussion: CPMs can't see SRAM weakness, the
// firmware scheme is workload-hostage, the hardware monitors measure the
// true binding constraint cheaply, and Razor digs deeper still but only
// by adding recovery hardware and replay overhead.
func runCompare(o Options) (*Result, error) {
	converge := o.scale(1800, 250)
	measure := o.scale(1800, 250)
	base := chip.DefaultParams(o.Seed, true, o.Full)
	razorCfg := alt.DefaultRazorConfig()
	razorCfg.DecisionTicks = o.scale(razorCfg.DecisionTicks, 4)
	razorParams := base
	razorParams.RazorWindowV = razorCfg.WindowV

	// Each technique drives a fresh chip either through a per-tick
	// control system or through an adapt func fed each tick's report
	// (see measureWindow).
	techniques := []struct {
		name   string
		params chip.Params
		build  func(c *chip.Chip) (*control.System, func(chip.TickReport))
	}{
		// No speculation: rails stay at nominal.
		{"none", base, func(*chip.Chip) (*control.System, func(chip.TickReport)) {
			return nil, nil
		}},
		// Critical path monitors: logic margin sensing + static cache
		// guardband.
		{"cpm", base, func(c *chip.Chip) (*control.System, func(chip.TickReport)) {
			cfg := alt.DefaultCPMConfig()
			cfg.DecisionTicks = o.scale(cfg.DecisionTicks, 4)
			return nil, alt.NewCPM(c, cfg).Adapt
		}},
		// Firmware ECC baseline [4] with off-line calibrated floors.
		{"ecc-firmware", base, func(c *chip.Chip) (*control.System, func(chip.TickReport)) {
			ctl := control.New(c, control.DefaultConfig())
			// Fast mode accelerates the (slow) firmware policy clock
			// along with the shortened run.
			fwCfg := firmware.DefaultConfig()
			fwCfg.QuietTicksToLower = o.scale(fwCfg.QuietTicksToLower, 8)
			fwCfg.HoldTicksAfterBackoff = o.scale(fwCfg.HoldTicksAfterBackoff, 80)
			fw := firmware.New(c, fwCfg)
			for _, d := range c.Domains {
				if a, err := ctl.FindOnset(d); err == nil {
					fw.SetFloor(d.ID, a.OnsetV)
				}
			}
			return nil, fw.Adapt
		}},
		// The paper's hardware ECC monitors.
		{"ecc-hardware", base, func(c *chip.Chip) (*control.System, func(chip.TickReport)) {
			ctl := control.New(c, control.DefaultConfig())
			if _, err := ctl.Calibrate(); err != nil {
				panic(err)
			}
			return ctl, nil
		}},
		// Razor: detect-and-replay through the logic floor.
		{"razor", razorParams, func(c *chip.Chip) (*control.System, func(chip.TickReport)) {
			return nil, alt.NewRazor(c, razorCfg).Adapt
		}},
	}

	var outs []compareOutcome
	for _, t := range techniques {
		c := chip.New(t.params)
		assignSuite(c, "SPECint", o.Seed)
		ctl, adapt := t.build(c)
		win := measureWindow(c, ctl, adapt, converge, measure)
		if win.dead >= 0 {
			return nil, fmt.Errorf("experiments: core %d died under %s", win.dead, t.name)
		}
		outs = append(outs, compareOutcome{
			name:      t.name,
			avgV:      win.avgV,
			reduction: 1 - win.avgV/c.P.Point.NominalVdd,
			epw:       win.energy / win.work,
			work:      win.work,
		})
	}
	baseEPW := outs[0].epw
	baseWork := outs[0].work
	tbl := NewTextTable("technique", "avg Vdd", "reduction", "rel energy/work", "perf cost")
	metrics := map[string]float64{}
	for _, out := range outs {
		perfCost := 1 - out.work/baseWork
		tbl.AddRow(out.name,
			fmt.Sprintf("%.3f V", out.avgV),
			fmt.Sprintf("%.1f%%", 100*out.reduction),
			fmt.Sprintf("%.3f", out.epw/baseEPW),
			fmt.Sprintf("%.2f%%", 100*perfCost))
		metrics["reduction_"+out.name] = out.reduction
		metrics["energy_"+out.name] = out.epw / baseEPW
		metrics["perfcost_"+out.name] = perfCost
	}
	return &Result{
		ID: "compare", Title: "Related-work technique comparison",
		Headline: fmt.Sprintf(
			"Vdd reductions: none %.0f%%, CPM %.1f%%, ECC-firmware %.1f%%, ECC-hardware %.1f%%, Razor %.1f%%",
			100*outs[0].reduction, 100*outs[1].reduction, 100*outs[2].reduction,
			100*outs[3].reduction, 100*outs[4].reduction),
		Table:   tbl,
		Metrics: metrics,
	}, nil
}

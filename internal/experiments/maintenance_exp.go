package experiments

import (
	"fmt"

	"pacds/internal/cds"
	"pacds/internal/distributed"
	"pacds/internal/mobility"
	"pacds/internal/sim"
	"pacds/internal/stats"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// Maintenance quantifies the paper's Section 2.2 locality claim at the
// protocol level: the message cost per mobility interval of maintaining
// the CDS with localized updates (distributed.Session) versus re-running
// the full three-phase protocol, under the ND policy.
func Maintenance(opt Options) (*FigureResult, error) {
	opt, err := opt.prepare()
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		ID:    "maintenance",
		Title: "Messages per interval: localized maintenance vs full protocol re-run (ND)",
		Notes: []string{
			"Paper mobility (c = 0.5, l in [1..6]); 15 intervals per trial; ND policy.",
		},
	}
	maint := &Series{Label: "maintenance"}
	rerun := &Series{Label: "full-rerun"}
	rng := xrand.New(opt.Seed + 97)
	const steps = 15
	for _, n := range opt.Ns {
		maintAcc, rerunAcc := &stats.Accumulator{}, &stats.Accumulator{}
		for trial := 0; trial < opt.Trials; trial++ {
			inst, err := udg.RandomConnected(udg.PaperConfig(n), rng, 5000)
			if err != nil {
				return nil, fmt.Errorf("maintenance N=%d: %w", n, err)
			}
			s, err := distributed.NewSession(inst.Graph, cds.ND, nil)
			if err != nil {
				return nil, err
			}
			base := s.Stats().Messages
			model := mobility.NewPaper()
			moveRNG := rng.Split(uint64(trial))
			rerunTotal := 0
			for step := 0; step < steps; step++ {
				changes := topologyDiffStep(inst, model, moveRNG)
				if _, err := s.ApplyChanges(changes); err != nil {
					return nil, err
				}
				_, st, err := distributed.Run(inst.Graph, cds.ND, nil)
				if err != nil {
					return nil, err
				}
				rerunTotal += st.Messages
			}
			maintAcc.Add(float64(s.Stats().Messages-base) / steps)
			rerunAcc.Add(float64(rerunTotal) / steps)
		}
		ms, rs := maintAcc.Summary(), rerunAcc.Summary()
		maint.Points = append(maint.Points, Point{N: n, Mean: ms.Mean, CI: ms.CI95()})
		rerun.Points = append(rerun.Points, Point{N: n, Mean: rs.Mean, CI: rs.CI95()})
	}
	fr.Series = append(fr.Series, *maint, *rerun)
	return fr, nil
}

// topologyDiffStep advances the mobility model one interval and returns
// the induced link events. Rebuild hands out a fresh graph, so the old one
// is still there to diff against.
func topologyDiffStep(inst *udg.Instance, m mobility.Model, rng *xrand.RNG) []distributed.EdgeChange {
	old := inst.Graph
	m.Step(inst.Positions, inst.Config.Field, rng)
	inst.Rebuild()
	return sim.LinkDiff(old, inst.Graph)
}

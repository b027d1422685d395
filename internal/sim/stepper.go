package sim

import (
	"slices"

	"pacds/internal/distributed"
	"pacds/internal/energy"
	"pacds/internal/graph"
	"pacds/internal/mobility"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// Stepper owns one lifetime run's world: the host positions and the
// unit-disk graph over them, every host's energy, and the run's random
// streams. It runs the paper's update-interval procedure (Section 4)
// around a per-interval body: call the body, stop when the body or the
// interval cap says so, otherwise move every host and rebuild the graph.
// Run, RunExtended, RunChurn, RunDistributed and traffic.Run are bodies
// over it; the body decides the backbone, drains energy and records its
// own metrics.
type Stepper struct {
	// Inst holds the positions and the current graph. Each move replaces
	// Inst.Graph with a fresh graph; bodies must not modify it.
	Inst *udg.Instance
	// Levels is every host's residual energy.
	Levels *energy.Levels
	// Energy is Levels as it stood when the current interval began.
	Energy []float64
	// RNG is the run's third random stream, for the body's own draws
	// (churn switching, traffic flows).
	RNG *xrand.RNG

	mobility     mobility.Model
	moveRNG      *xrand.RNG
	maxIntervals int
	// prev is the graph before the last move; nil before the first.
	prev *graph.Graph
}

// NewStepper places cfg.N hosts (connected if cfg.ConnectedStart) and
// gives each cfg.InitialEnergy, or its cfg.InitialLevels entry when that
// is set. The seed's root stream splits in a fixed order: 1 for
// placement, 2 for moves, 3 for RNG. NewStepper does not validate cfg;
// each caller validates its own configuration first.
func NewStepper(cfg Config) (*Stepper, error) {
	root := xrand.New(cfg.Seed)
	placeRNG := root.Split(1)
	s := &Stepper{
		mobility:     cfg.Mobility,
		moveRNG:      root.Split(2),
		RNG:          root.Split(3),
		maxIntervals: cfg.MaxIntervals,
	}
	if s.maxIntervals <= 0 {
		s.maxIntervals = 100000
	}
	ucfg := udg.Config{N: cfg.N, Field: cfg.Field, Radius: cfg.Radius}
	var err error
	if cfg.ConnectedStart {
		s.Inst, err = udg.RandomConnected(ucfg, placeRNG, 5000)
	} else {
		s.Inst, err = udg.Random(ucfg, placeRNG)
	}
	if err != nil {
		return nil, err
	}
	s.Levels = energy.NewLevels(cfg.N, cfg.InitialEnergy)
	for v, e := range cfg.InitialLevels {
		s.Levels.SetLevel(v, e)
	}
	s.Energy = make([]float64, cfg.N)
	s.snapshot()
	return s, nil
}

// Run calls body for intervals 1, 2, ... until body reports stop, body
// fails, or the MaxIntervals-th interval ends (0 means 100000). Between
// intervals every host moves (unless the run is static), the graph is
// rebuilt and Energy is refreshed. Run returns the number of intervals
// that ran and whether the cap ended the run.
func (s *Stepper) Run(body func(interval int) (stop bool, err error)) (intervals int, truncated bool, err error) {
	for interval := 1; ; interval++ {
		stop, err := body(interval)
		if err != nil || stop {
			return interval, false, err
		}
		if interval >= s.maxIntervals {
			return interval, true, nil
		}
		if s.mobility != nil {
			s.prev = s.Inst.Graph
			s.mobility.Step(s.Inst.Positions, s.Inst.Config.Field, s.moveRNG)
			s.Inst.Rebuild()
		}
		s.snapshot()
	}
}

func (s *Stepper) snapshot() {
	for v := range s.Energy {
		s.Energy[v] = s.Levels.Level(v)
	}
}

// LinkChanges returns the link changes of the last move in LinkDiff's
// order; nil before the first move and for static hosts.
func (s *Stepper) LinkChanges() []distributed.EdgeChange {
	if s.prev == nil {
		return nil
	}
	return LinkDiff(s.prev, s.Inst.Graph)
}

// Restricted returns the current graph without the links of hosts that
// keep rejects (dead or switched-off hosts keep their position but carry
// no links): the graph itself when keep accepts every host, otherwise a
// fresh graph over the same nodes.
func (s *Stepper) Restricted(keep func(v int) bool) *graph.Graph {
	g := s.Inst.Graph
	for v := 0; v < g.NumNodes(); v++ {
		if !keep(v) {
			return graph.FromEdgeFunc(g.NumNodes(), func(emit func(u, w graph.NodeID)) {
				g.Edges(func(u, w graph.NodeID) {
					if keep(int(u)) && keep(int(w)) {
						emit(u, w)
					}
				})
			})
		}
	}
	return g
}

// LinkDiff returns the links of old that cur lacks (Up false), then the
// links of cur that old lacks (Up true), each run in ascending (A, B)
// order with A < B. It walks the two graphs' sorted rows together, so it
// copies no graph and looks up no edge. old and cur must have the same
// nodes.
func LinkDiff(old, cur *graph.Graph) []distributed.EdgeChange {
	var downs, ups []distributed.EdgeChange
	for v := 0; v < old.NumNodes(); v++ {
		u := graph.NodeID(v)
		a, b := above(old.Neighbors(u), u), above(cur.Neighbors(u), u)
		for len(a) > 0 || len(b) > 0 {
			switch {
			case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
				downs = append(downs, distributed.EdgeChange{A: u, B: a[0]})
				a = a[1:]
			case len(a) == 0 || b[0] < a[0]:
				ups = append(ups, distributed.EdgeChange{A: u, B: b[0], Up: true})
				b = b[1:]
			default:
				a, b = a[1:], b[1:]
			}
		}
	}
	return append(downs, ups...)
}

// above returns the part of the sorted row whose entries exceed u.
func above(row []graph.NodeID, u graph.NodeID) []graph.NodeID {
	i, _ := slices.BinarySearch(row, u+1)
	return row[i:]
}

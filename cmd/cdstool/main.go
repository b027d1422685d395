// Command cdstool computes a connected dominating set for a graph given in
// edge-list format, under any of the paper's pruning policies, and checks
// the CDS invariants.
//
// Usage:
//
//	cdstool -policy ND [-energy "100,80,90,..."] [-verify] [-workers 4] [file]
//
// The graph is read from the named file, or stdin when no file is given.
// Input format:
//
//	nodes <n>
//	<u> <v>
//	...
//
// Output lists the marked set after the marking process, the gateway set
// after the rules, and (with -verify) the invariant check results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pacds/internal/cds"
	"pacds/internal/graph"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cdstool:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cdstool", flag.ContinueOnError)
	policyName := fs.String("policy", "ID", "pruning policy: NR, ID, ND, EL1, or EL2")
	energyCSV := fs.String("energy", "", "comma-separated energy levels (required for EL1/EL2)")
	verify := fs.Bool("verify", false, "check CDS invariants and Property 3")
	analyze := fs.Bool("analyze", false, "print backbone quality metrics per policy")
	allPolicies := fs.Bool("all", false, "compute all five policies")
	randomN := fs.Int("random", 0, "generate a random connected unit-disk network with this many hosts instead of reading a graph")
	seed := fs.Uint64("seed", 1, "seed for -random")
	workers := fs.Int("workers", 1, "compute-pipeline fan-out: goroutines for graph build and marking (0 = GOMAXPROCS; output is identical at every setting)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *graph.Graph
	if *randomN > 0 {
		inst, err := udg.RandomConnected(udg.PaperConfig(*randomN), xrand.New(*seed), 5000)
		if err != nil {
			return err
		}
		// Rebuild through the parallel constructor when fan-out is
		// requested; BuildParallel ≡ Build, so the topology is unchanged.
		if *workers != 1 {
			g = udg.BuildParallel(inst.Positions, inst.Config.Field, inst.Config.Radius, *workers)
		} else {
			g = inst.Graph
		}
	} else {
		in := stdin
		if fs.NArg() > 0 {
			f, err := os.Open(fs.Arg(0))
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		var err error
		g, err = graph.Read(in)
		if err != nil {
			return err
		}
	}

	var energy []float64
	if *energyCSV != "" {
		for _, part := range strings.Split(*energyCSV, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("bad energy value %q: %v", part, err)
			}
			energy = append(energy, v)
		}
		if len(energy) != g.NumNodes() {
			return fmt.Errorf("got %d energy values for %d nodes", len(energy), g.NumNodes())
		}
	}

	policies := []cds.Policy{}
	if *allPolicies {
		policies = cds.Policies
		if energy == nil {
			// EL1/EL2 need levels; default to the paper's uniform 100.
			energy = make([]float64, g.NumNodes())
			for i := range energy {
				energy[i] = 100
			}
		}
	} else {
		p, err := cds.ByName(*policyName)
		if err != nil {
			return err
		}
		policies = append(policies, p)
	}

	fmt.Fprintf(stdout, "graph: %d nodes, %d edges, connected=%v complete=%v\n",
		g.NumNodes(), g.NumEdges(), g.IsConnected(), g.IsComplete())
	marked := cds.MarkParallel(g, *workers)
	fmt.Fprintf(stdout, "marked (%d): %v\n", cds.CountGateways(marked), ids(marked))

	for _, p := range policies {
		gw, err := cds.ApplyRulesParallel(g, p, marked, energy, *workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-4s gateways (%d): %v\n", p, cds.CountGateways(gw), ids(gw))
		if *analyze {
			report, err := cds.Analyze(g, gw)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  %s\n", report)
		}
		if *verify {
			if err := cds.VerifyCDS(g, gw); err != nil {
				fmt.Fprintf(stdout, "  INVARIANT VIOLATION: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "  invariants: dominating + connected OK\n")
			}
		}
	}
	if *verify {
		if err := cds.VerifyProperty3(g, marked); err != nil {
			fmt.Fprintf(stdout, "property 3: VIOLATED: %v\n", err)
		} else {
			fmt.Fprintln(stdout, "property 3: OK (marked set preserves all shortest paths)")
		}
	}
	return nil
}

func ids(set []bool) []int {
	out := []int{}
	for v, in := range set {
		if in {
			out = append(out, v)
		}
	}
	return out
}

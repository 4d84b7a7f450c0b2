package main

import (
	"fmt"
	"strings"

	"mlpa/internal/emu"
	"mlpa/internal/prog"
	"mlpa/internal/staticanalysis"
	"mlpa/internal/staticanalysis/dataflow"
)

// runAnalyze implements `mlpa analyze`: print the verifier report, CFG,
// dominator tree, and natural-loop forest for a suite benchmark
// (-bench) or an assembly file given as a positional argument. With
// -dataflow it additionally prints the register dataflow solution
// (per-block live sets and statically-dead writes) and cross-checks
// the static model against the emulator's predecoded register slots.
// With -dynamic it also runs the loop profiler and cross-checks every
// dynamically-observed structure against the static forest, which is
// the same comparison COASTS journals during boundary collection.
func runAnalyze(f *flags) error {
	p, err := loadProgram(f)
	if err != nil {
		return err
	}
	a := staticanalysis.Analyze(p)

	fmt.Printf("program %s: %d instructions\n\n", p.Name, len(p.Code))
	fmt.Print(a.Summary())
	fmt.Printf("\nCFG:\n%s", a.CFG)
	fmt.Printf("\nDominator tree:\n%s", a.Dom)
	fmt.Printf("\nLoop forest:\n%s", a.Loops)

	if !a.Report.OK() {
		// Still render everything above, but make the failure the exit
		// status so scripts can gate on it.
		return fmt.Errorf("verification failed: %d diagnostic(s)", len(a.Report.Diags))
	}
	if f.dataflow {
		rep, err := dataflowReport(p)
		if err != nil {
			return err
		}
		fmt.Print(rep)
	}
	if f.dynamic {
		return analyzeDynamic(p, a)
	}
	return nil
}

// dataflowReport renders the register dataflow solution: per-block
// live/gen/kill sets with memory flags, the statically-dead writes,
// and the result of cross-checking the static model against the
// emulator's predecoded register slots. It returns an error — failing
// the command — if the cross-check finds a disagreement between the
// two models.
func dataflowReport(p *prog.Program) (string, error) {
	d := dataflow.For(p)
	var sb strings.Builder
	sb.WriteString("\nDataflow:\n")
	for id := range d.CFG.Blocks {
		start, end := d.BlockRange(id)
		mem := ""
		if d.Loads[id] {
			mem += "L"
		}
		if d.Stores[id] {
			mem += "S"
		}
		if mem != "" {
			mem = " mem=" + mem
		}
		note := ""
		if !d.CFG.Reachable[id] {
			note = " (unreachable)"
		}
		fmt.Fprintf(&sb, "  B%d [%d,%d): liveIn=%s liveOut=%s gen=%s kill=%s%s%s\n",
			id, start, end, d.LiveIn[id], d.LiveOut[id], d.Gen[id], d.Kill[id], mem, note)
	}
	dead := d.DeadWrites()
	if len(dead) == 0 {
		sb.WriteString("  dead writes: none\n")
	} else {
		fmt.Fprintf(&sb, "  dead writes: %d\n", len(dead))
		for _, dw := range dead {
			fmt.Fprintf(&sb, "    pc %d: %s  %s\n", dw.PC, dw.Reg, p.Code[dw.PC])
		}
	}
	if err := emu.CrossCheckDataflow(p); err != nil {
		return "", fmt.Errorf("predecode cross-check: %w", err)
	}
	sb.WriteString("  predecode cross-check: ok\n")
	return sb.String(), nil
}

// analyzeDynamic runs the dynamic loop profiler to completion and
// prints the static/dynamic agreement table.
func analyzeDynamic(p *prog.Program, a *staticanalysis.Analysis) error {
	m := emu.New(p, 0)
	lp := emu.NewLoopProfiler(m)
	m.Branch = lp.OnBranch
	if _, err := m.RunToCompletion(1 << 40); err != nil {
		return fmt.Errorf("dynamic profile: %w", err)
	}
	lp.Finish()
	all := lp.Structures()
	heads := make([]int64, len(all))
	depths := make([]int, len(all))
	for i, s := range all {
		heads[i] = s.Head
		depths[i] = s.Depth
	}
	fmt.Printf("\nDynamic cross-check (%d structures over %d instructions):\n", len(all), m.Insts)
	disagreements := 0
	for i, ag := range a.Loops.CheckDynamic(heads, depths) {
		verdict := "ok"
		if !ag.InStatic {
			verdict = "NOT A STATIC LOOP"
			disagreements++
		} else if ag.DynamicDepth > ag.StaticDepth {
			verdict = "DEEPER THAN STATIC"
			disagreements++
		}
		fmt.Printf("  head=%-6d iters=%-8d dynDepth=%d staticDepth=%d  %s\n",
			ag.Head, all[i].Iterations, ag.DynamicDepth, ag.StaticDepth, verdict)
	}
	if disagreements > 0 {
		return fmt.Errorf("dynamic profile disagrees with static forest on %d structure(s)", disagreements)
	}
	fmt.Println("  static and dynamic loop structure agree")
	return nil
}

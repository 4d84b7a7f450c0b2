// Package mlpa is the public API of the multi-level phase analysis
// framework — a from-scratch reproduction of "Multi-level Phase
// Analysis for Sampling Simulation" (Li, Zhang, Chen, Zang; DATE
// 2013).
//
// The package exposes three layers:
//
//   - The sampling methods themselves: fine-grained SimPoint
//     (SelectSimPoint), the paper's coarse-grained COASTS
//     (SelectCoasts) and the two-level multi-level framework
//     (SelectMultiLevel), all producing sampling Plans over programs
//     for the built-in mini ISA.
//   - The simulation substrate: the functional emulator and the
//     detailed out-of-order model with the paper's Table I machine
//     configurations (ConfigA, ConfigB), plus plan execution that
//     yields weighted CPI and cache hit-rate estimates
//     (Execute, GroundTruth).
//   - The evaluation harness: the synthetic SPEC2000-model benchmark
//     suite (Suite, BenchmarkByName) and the experiment runners that
//     regenerate every figure and table of the paper (NewStudy, Fig1,
//     and the Study methods Fig3, Fig4, Table2, Table3).
//
// See examples/quickstart for the three-method tour, and DESIGN.md for
// the substitutions this reproduction makes for the paper's
// SimpleScalar/SPEC2000 environment.
package mlpa

import (
	"mlpa/internal/bench"
	"mlpa/internal/coasts"
	"mlpa/internal/config"
	"mlpa/internal/cpu"
	"mlpa/internal/emu"
	"mlpa/internal/experiments"
	"mlpa/internal/multilevel"
	"mlpa/internal/phasepred"
	"mlpa/internal/pipeline"
	"mlpa/internal/prog"
	"mlpa/internal/sampling"
	"mlpa/internal/simpoint"
	"mlpa/internal/smarts"
	"mlpa/internal/vli"
)

// Program construction and execution substrate.
type (
	// Program is an executable for the mini ISA.
	Program = prog.Program
	// Builder constructs Programs with structured control flow.
	Builder = prog.Builder
	// Machine is the functional emulator state.
	Machine = emu.Machine
	// MachineConfig is a detailed-simulator machine configuration
	// (Table I).
	MachineConfig = cpu.Config
	// DetailedResult is the outcome of a detailed simulation region.
	DetailedResult = cpu.Result
)

// Sampling vocabulary.
type (
	// Plan is a sampling recipe: simulation points with weights.
	Plan = sampling.Plan
	// Point is one selected simulation point.
	Point = sampling.Point
	// TimeModel converts instruction splits into simulation time.
	TimeModel = sampling.TimeModel
	// Estimate is the weighted outcome of executing a Plan.
	Estimate = pipeline.Estimate
	// ExecOptions controls plan execution (warmup policy).
	ExecOptions = pipeline.ExecOptions
)

// Method configurations.
type (
	// SimPointConfig parameterizes fine-grained SimPoint.
	SimPointConfig = simpoint.Config
	// CoastsConfig parameterizes the coarse-grained first level.
	CoastsConfig = coasts.Config
	// MultiLevelConfig parameterizes the two-level framework.
	MultiLevelConfig = multilevel.Config
	// MultiLevelReport exposes the intermediate artifacts of a
	// multi-level selection.
	MultiLevelReport = multilevel.Report
)

// Benchmark suite.
type (
	// BenchmarkSpec describes one synthetic SPEC2000-model benchmark.
	BenchmarkSpec = bench.Spec
	// SuiteSize selects the suite scale preset.
	SuiteSize = bench.Size
)

// Suite scale presets.
const (
	SizeTiny  = bench.SizeTiny
	SizeSmall = bench.SizeSmall
	SizeRef   = bench.SizeRef
)

// Experiment harness.
type (
	// StudyOptions configures an experiment study.
	StudyOptions = experiments.Options
	// Study holds selected plans for the suite and generates the
	// paper's figures and tables.
	Study = experiments.Study
	// SpeedupResult is a Figure 3 / Figure 4 dataset.
	SpeedupResult = experiments.SpeedupResult
	// Table2Result holds Table II deviation cells.
	Table2Result = experiments.Table2Result
	// Table3Row is one Table III line.
	Table3Row = experiments.Table3Row
	// Fig1Result holds the Figure 1 phase trajectories.
	Fig1Result = experiments.Fig1Result
)

// NewBuilder returns a Program builder (see Builder).
func NewBuilder(name string) *Builder { return prog.NewBuilder(name) }

// Assemble parses textual assembly into a Program.
func Assemble(name, src string) (*Program, error) { return prog.Assemble(name, src) }

// NewMachine creates a functional emulator for p. memWords <= 0
// selects a default data-memory size.
func NewMachine(p *Program, memWords int64) *Machine { return emu.New(p, memWords) }

// ConfigA returns Table I Part A, the base machine configuration.
func ConfigA() MachineConfig { return config.BaseA() }

// ConfigB returns Table I Part B, the sensitivity configuration.
func ConfigB() MachineConfig { return config.SensitivityB() }

// SimpleScalarRates is the paper-calibrated simulation time model.
var SimpleScalarRates = sampling.SimpleScalarRates

// SelectSimPoint runs the fine-grained SimPoint baseline on p.
func SelectSimPoint(p *Program, cfg SimPointConfig) (*Plan, error) {
	plan, _, _, err := simpoint.Select(p, cfg)
	return plan, err
}

// SelectCoasts runs the paper's coarse-grained first-level sampling.
func SelectCoasts(p *Program, cfg CoastsConfig) (*Plan, error) {
	plan, _, _, err := coasts.Select(p, cfg)
	return plan, err
}

// SelectMultiLevel runs the complete two-level framework.
func SelectMultiLevel(p *Program, cfg MultiLevelConfig) (*Plan, *MultiLevelReport, error) {
	return multilevel.Select(p, cfg)
}

// Execute performs the sampled simulation a plan describes under a
// machine configuration and returns weighted metric estimates.
func Execute(p *Program, plan *Plan, cfg MachineConfig, opts ExecOptions) (*Estimate, error) {
	return pipeline.ExecutePlan(p, plan, cfg, opts)
}

// GroundTruth runs the whole program through the detailed simulator.
func GroundTruth(p *Program, cfg MachineConfig) (DetailedResult, error) {
	res, _, err := pipeline.FullDetailed(p, cfg)
	return res, err
}

// Deviations compares an estimate against ground truth, returning the
// relative errors of CPI, L1 hit rate and L2 hit rate.
func Deviations(est *Estimate, truth DetailedResult) (cpi, l1, l2 float64) {
	return pipeline.Deviations(est, truth)
}

// Suite returns the synthetic SPEC2000-model benchmark catalog.
func Suite() []*BenchmarkSpec { return bench.Suite() }

// BenchmarkByName returns one suite benchmark.
func BenchmarkByName(name string) (*BenchmarkSpec, error) { return bench.ByName(name) }

// FineInterval returns the fine-grained interval length (the paper's
// "10M instructions") at a suite scale.
func FineInterval(size SuiteSize) uint64 { return bench.FineInterval(size) }

// NewStudy selects all three methods' plans over the suite.
func NewStudy(o StudyOptions) (*Study, error) { return experiments.NewStudy(o) }

// Fig1 reproduces Figure 1 for a benchmark (the paper uses lucas).
func Fig1(o StudyOptions, benchmark string) (*Fig1Result, error) {
	return experiments.Fig1(o, benchmark)
}

// Extension methods and flows beyond the paper's three core methods.

type (
	// VLIConfig parameterizes the variable-length-interval variant
	// (SPM-style boundaries).
	VLIConfig = vli.Config
	// SmartsConfig parameterizes systematic statistical sampling.
	SmartsConfig = smarts.Config
	// PhasePredictor predicts the next interval's phase at run time.
	PhasePredictor = phasepred.Predictor
)

// SelectVLI runs the variable-length-interval fine-grained method.
func SelectVLI(p *Program, cfg VLIConfig) (*Plan, error) {
	plan, _, _, err := vli.Select(p, cfg)
	return plan, err
}

// SelectSmarts builds a SMARTS-style systematic sampling plan.
func SelectSmarts(p *Program, cfg SmartsConfig) (*Plan, error) {
	return smarts.Select(p, cfg)
}

// NewLastPhasePredictor returns the last-phase baseline predictor.
func NewLastPhasePredictor() PhasePredictor { return phasepred.NewLast() }

// NewMarkovPhasePredictor returns an order-k Markov phase predictor.
func NewMarkovPhasePredictor(order int) PhasePredictor { return phasepred.NewMarkov(order) }

// NewRLEMarkovPhasePredictor returns the run-length-encoded Markov
// phase predictor.
func NewRLEMarkovPhasePredictor() PhasePredictor { return phasepred.NewRLEMarkov() }

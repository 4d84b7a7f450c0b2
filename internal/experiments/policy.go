package experiments

import (
	"math"

	"mlpa/internal/obs"
	"mlpa/internal/pipeline"
	"mlpa/internal/simpoint"
)

// The harness's sampling policy: the paper's selection parameters and
// the scale substitutions DESIGN.md documents. Table II, the ablations,
// `mlpa bench`, `mlpa ckpt save` and the sampling service all read it
// from here, so one edit changes every consumer together.
const (
	// CoarseKmax is COASTS's Kmax, the paper's default.
	CoarseKmax = 3

	// fineKmax is SimPoint's Kmax, the release default.
	fineKmax = 30

	// fineBICFraction is the BIC selection fraction of the fine-grained
	// clustering. It is 0.99 rather than SimPoint's 0.9: the synthetic
	// suite's BBVs are noiseless, so the BIC curve saturates at very
	// small k under the 0.9 rule, merging unlike intervals; 0.99 yields
	// cluster counts (~16-25) matching SimPoint's observed behavior on
	// SPEC2000 (20.1 points on average).
	fineBICFraction = 0.99

	// fineSampleCap bounds fine-grained clustering input: longer traces
	// are stride-sampled and the rest assigned to the nearest centroid,
	// as SimPoint does.
	fineSampleCap = 2000

	// detailLeadIn is the discarded detailed warmup per point: 512
	// instructions, 4x the reorder buffer.
	detailLeadIn = 512

	// checkpointWarmup is the finite functional-warming window per point
	// (64 Ki instructions, generous next to the tiny and small guests).
	// It is finite so every point has a warm start strictly inside the
	// program: that is what lets checkpoint sets replace the functional
	// fast-forward to each point. An unbounded window would pin every
	// warm start to instruction zero and leave nothing for a checkpoint
	// to skip.
	checkpointWarmup = 1 << 16
)

// FineConfig is the harness's fine-grained SimPoint selection at the
// given interval length.
func FineConfig(interval uint64, seed int64, rt *obs.Runtime) simpoint.Config {
	return simpoint.Config{
		IntervalLen: interval,
		Kmax:        fineKmax,
		Seed:        seed,
		SampleCap:   fineSampleCap,
		BICFraction: fineBICFraction,
		Obs:         rt,
	}
}

// HarnessExec is Table II's execution policy: unbounded functional
// warming, from instruction 0 to each point's lead-in (SMARTS-style;
// see pipeline.ExecOptions on why scaled points need warming and how
// one warm pass serves every point), and the detailed lead-in. Callers
// add the runtime fields (Workers, Ctx, Obs).
func HarnessExec() pipeline.ExecOptions {
	return pipeline.ExecOptions{Warmup: math.MaxUint64, DetailLeadIn: detailLeadIn}
}

// CheckpointExec is the finite execution policy that checkpoint sets
// and the sampling service use: the checkpointWarmup window and the
// same lead-in. Together with a request it determines every service
// response bit and every set `mlpa ckpt save` writes, so changing it
// changes the service goldens. Callers add the runtime fields.
func CheckpointExec() pipeline.ExecOptions {
	return pipeline.ExecOptions{Warmup: checkpointWarmup, DetailLeadIn: detailLeadIn}
}

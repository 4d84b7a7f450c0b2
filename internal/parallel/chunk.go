package parallel

// Cost-aware chunking. ForEach hands every index to the pool
// individually, which is the right shape when tasks are heavy and
// uniform — and a measurable loss when they are fine-grained: each
// task then pays its fixed setup (for simulation points, materializing
// a functional machine) far more often than a sequential pass would.
// PartitionChunks coalesces an index range into contiguous chunks
// sized by estimated cost, and adapts the chunk count to the work
// actually available: when the model says extra workers cannot pay for
// their startup, fewer chunks (down to one — a plain sequential loop)
// are produced, so parallel execution is never slower than workers==1
// by construction.
//
// The partition is a pure function of (n, options): no timing, no
// randomness, no GOMAXPROCS probing unless Workers<=0 is passed. A
// caller that resolves Workers itself gets a machine-independent,
// bit-reproducible schedule.

import "runtime"

// Chunk is a contiguous index range [Start, End).
type Chunk struct {
	Start, End int
}

// Len returns the number of indices in the chunk.
func (c Chunk) Len() int { return c.End - c.Start }

// ChunkOptions parameterizes PartitionChunks. The zero value chunks n
// uniform-cost items across GOMAXPROCS workers.
type ChunkOptions struct {
	// Workers caps the number of chunks (one worker runs one chunk).
	// <= 0 selects GOMAXPROCS.
	Workers int

	// Cost estimates the execution cost of item i in any consistent
	// unit. Nil means every item costs 1. Negative estimates are
	// treated as 0.
	Cost func(i int) float64

	// StartCost estimates the one-time cost a chunk pays before its
	// first item runs when that item is i — for simulation points, the
	// fast-forward or state restore to the chunk's starting position.
	// This is what makes the partitioner conservative about splitting:
	// a split only survives if the shortened per-chunk work outweighs
	// the extra startup. Nil means chunks start for free.
	StartCost func(i int) float64

	// MinChunkCost, when positive, is the smallest summed item cost
	// worth dispatching as its own chunk; the chunk count is capped so
	// no chunk falls below it. It guards against splitting work that is
	// too small to amortize any per-chunk overhead the cost model does
	// not capture.
	MinChunkCost float64
}

// chunkGainThreshold is how much a larger chunk count must improve the
// modeled makespan to be preferred. Ties and marginal wins go to fewer
// chunks: cost models are estimates, and fewer chunks means less
// startup work and less scheduling surface.
const chunkGainThreshold = 0.05

// PartitionChunks splits [0, n) into at most opt.Workers contiguous
// chunks, choosing the chunk count c whose greedy balanced partition
// minimizes the modeled makespan
//
//	max over chunks of StartCost(first item) + sum of item costs,
//
// preferring smaller c unless a larger one wins by more than
// chunkGainThreshold. n <= 0 returns nil; otherwise every index
// appears in exactly one chunk and chunks ascend.
func PartitionChunks(n int, opt ChunkOptions) []Chunk {
	if n <= 0 {
		return nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	cost := make([]float64, n)
	var total float64
	for i := range cost {
		c := 1.0
		if opt.Cost != nil {
			c = opt.Cost(i)
			if c < 0 {
				c = 0
			}
		}
		cost[i] = c
		total += c
	}
	cmax := workers
	if opt.MinChunkCost > 0 {
		if m := int(total / opt.MinChunkCost); m < cmax {
			cmax = max(m, 1)
		}
	}
	best := partitionGreedy(cost, total, 1)
	bestSpan := makespan(best, cost, opt.StartCost)
	for c := 2; c <= cmax; c++ {
		p := partitionGreedy(cost, total, c)
		if s := makespan(p, cost, opt.StartCost); s < bestSpan*(1-chunkGainThreshold) {
			best, bestSpan = p, s
		}
	}
	return best
}

// partitionGreedy cuts the items into c contiguous chunks, each chunk
// absorbing items until it reaches an equal share of the cost that
// remains (the final chunk takes everything left). Chunks are never
// empty: each takes at least one item and leaves at least one per
// chunk still to come.
func partitionGreedy(cost []float64, total float64, c int) []Chunk {
	n := len(cost)
	chunks := make([]Chunk, 0, c)
	start := 0
	remaining := total
	for k := 0; k < c; k++ {
		end := start + 1
		acc := cost[start]
		if k == c-1 {
			for ; end < n; end++ {
				acc += cost[end]
			}
		} else {
			target := remaining / float64(c-k)
			for end < n-(c-k-1) && acc < target {
				acc += cost[end]
				end++
			}
		}
		chunks = append(chunks, Chunk{Start: start, End: end})
		remaining -= acc
		start = end
	}
	return chunks
}

// makespan is the modeled parallel wall time of a partition: the
// heaviest chunk's startup plus work.
func makespan(chunks []Chunk, cost []float64, startCost func(i int) float64) float64 {
	var worst float64
	for _, c := range chunks {
		var load float64
		if startCost != nil {
			load = startCost(c.Start)
		}
		for i := c.Start; i < c.End; i++ {
			load += cost[i]
		}
		if load > worst {
			worst = load
		}
	}
	return worst
}

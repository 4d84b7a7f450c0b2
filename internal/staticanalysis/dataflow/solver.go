package dataflow

import "mlpa/internal/staticanalysis"

// Solve runs an iterative worklist fixpoint of a monotone backward
// dataflow framework over g — facts flow against CFG edges, from a
// block's successors into its exit — and returns the per-block entry
// and exit facts.
//
//   - boundary(b) is the fact flowing into the iteration at blocks with
//     no successors (and the identity the edge join starts from
//     everywhere else) — for a may-analysis this is the lattice bottom.
//   - join folds one successor's entry fact into an accumulator; it
//     must be the lattice join (commutative, associative, idempotent).
//   - transfer maps a block's exit fact to its entry fact and must be
//     monotone with respect to join, or the iteration need not
//     terminate.
//   - equal tests facts for equality; it gates propagation.
//
// Blocks are seeded in reverse of reverse postorder, which makes
// acyclic regions converge in one pass; unreachable blocks are seeded
// first so every block receives a solution. The worklist is a
// deterministic FIFO, so the solution — already unique as the least
// fixpoint — is also reproduced by an identical visit sequence on every
// run.
func Solve[F any](
	g *staticanalysis.CFG,
	boundary func(b int) F,
	join func(acc, x F) F,
	transfer func(b int, x F) F,
	equal func(a, b F) bool,
) (in, out []F) {
	n := g.NumBlocks()
	in = make([]F, n)
	out = make([]F, n)

	order := make([]int, 0, n)
	seen := make([]bool, n)
	for _, b := range g.RPO() {
		order = append(order, b)
		seen[b] = true
	}
	for b := 0; b < n; b++ {
		if !seen[b] {
			order = append(order, b)
		}
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}

	queue := append(make([]int, 0, n), order...)
	queued := make([]bool, n)
	for _, b := range queue {
		queued[b] = true
	}
	enqueue := func(b int) {
		if !queued[b] {
			queued[b] = true
			queue = append(queue, b)
		}
	}

	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false
		acc := boundary(b)
		for _, s := range g.Succs[b] {
			acc = join(acc, in[s])
		}
		out[b] = acc
		if next := transfer(b, acc); !equal(next, in[b]) {
			in[b] = next
			for _, p := range g.Preds[b] {
				enqueue(p)
			}
		}
	}
	return in, out
}

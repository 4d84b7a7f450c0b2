// Package bbv implements basic-block vectors, the program-behaviour
// metric of the SimPoint family: per-interval instruction counts per
// basic block, reduced by a deterministic random projection to a small
// dimension (15 in the paper) and L1-normalized so each vector
// describes the *distribution* of execution over the code, independent
// of interval length.
package bbv

import (
	"fmt"
	"math/rand"

	"mlpa/internal/linalg"
)

// DefaultDims is the projected dimensionality used by SimPoint and by
// the paper.
const DefaultDims = 15

// Projector maps raw basic-block count vectors into a fixed
// low-dimensional space via a seeded random matrix, preserving
// relative distances (Johnson-Lindenstrauss style) while bounding the
// clustering cost and trace size.
type Projector struct {
	numBlocks int
	dims      int
	matrix    []float64 // numBlocks x dims, row-major
}

// NewProjector creates a projector for numBlocks basic blocks down to
// dims dimensions. The same (numBlocks, dims, seed) triple always
// yields the same matrix.
func NewProjector(numBlocks, dims int, seed int64) (*Projector, error) {
	if numBlocks <= 0 {
		return nil, fmt.Errorf("bbv: numBlocks = %d", numBlocks)
	}
	if dims <= 0 {
		return nil, fmt.Errorf("bbv: dims = %d", dims)
	}
	rng := rand.New(rand.NewSource(seed))
	m := make([]float64, numBlocks*dims)
	for i := range m {
		m[i] = rng.Float64()
	}
	return &Projector{numBlocks: numBlocks, dims: dims, matrix: m}, nil
}

// MustNewProjector is NewProjector, panicking on error.
func MustNewProjector(numBlocks, dims int, seed int64) *Projector {
	p, err := NewProjector(numBlocks, dims, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// Dims returns the projected dimensionality.
func (p *Projector) Dims() int { return p.dims }

// NumBlocks returns the expected raw vector length.
func (p *Projector) NumBlocks() int { return p.numBlocks }

// Project maps a raw per-block count vector to the projected space.
// The result is not normalized; callers normalize signatures once they
// are fully assembled.
func (p *Projector) Project(counts []uint64) ([]float64, error) {
	if len(counts) != p.numBlocks {
		return nil, fmt.Errorf("bbv: count vector has %d blocks, projector expects %d", len(counts), p.numBlocks)
	}
	out := make([]float64, p.dims)
	for b, c := range counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		row := p.matrix[b*p.dims : (b+1)*p.dims]
		for d := range out {
			out[d] += fc * row[d]
		}
	}
	return out, nil
}

// Signature builds the final interval signature: the projection of
// counts, L1-normalized as in the SimPoint pipeline.
func (p *Projector) Signature(counts []uint64) ([]float64, error) {
	v, err := p.Project(counts)
	if err != nil {
		return nil, err
	}
	linalg.NormalizeL1(v)
	return v, nil
}

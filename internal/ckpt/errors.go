// Package ckpt implements portable binary region checkpoints: the
// versioned, content-hash-integrity-checked serialization of the
// architectural state a sampled simulation needs to enter a selected
// point with zero fast-forward. A checkpoint set captures, per plan
// point, the live-in-scrubbed register files (the dataflow masks of
// internal/staticanalysis/dataflow are the storage schema — state
// outside them is provably unreadable), the touched-memory footprint
// (only pages the program wrote: the emulator's allocated pages), the
// resume PC/position, and — at set level — the complete
// code image, so a set is a self-contained Nugget-style snippet: any
// machine can run detailed simulation of any point from it. See
// docs/CHECKPOINTS.md for the format specification.
package ckpt

import "errors"

// The package's structured error kinds. Every failure wraps exactly
// one of these sentinels, so callers can distinguish malformed bytes,
// a failed integrity hash, and a checkpoint set that is well-formed
// but belongs to a different (program, plan, warm policy) with
// errors.Is.
var (
	// ErrFormat reports structurally malformed checkpoint bytes: bad
	// magic, unsupported version, truncated or overlong payloads,
	// out-of-range counts.
	ErrFormat = errors.New("malformed checkpoint")

	// ErrIntegrity reports a content-hash mismatch: the bytes parse
	// but are not the bytes that were written (corruption/tampering).
	ErrIntegrity = errors.New("checkpoint integrity check failed")

	// ErrMismatch reports a checkpoint that is internally valid but
	// does not apply here: wrong program, wrong plan, wrong warm
	// policy, or state inconsistent with the target machine.
	ErrMismatch = errors.New("checkpoint does not match")
)

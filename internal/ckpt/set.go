package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mlpa/internal/prog"
	"mlpa/internal/sampling"
)

// Policy is the warm-policy fingerprint a checkpoint set is bound to.
// Point states are captured at each point's warm start, which is a
// pure function of (plan, policy) — replaying under a different policy
// would need state at different positions, so Match rejects it.
type Policy struct {
	Warmup       uint64 `json:"warmup"`
	DetailLeadIn uint64 `json:"detail_lead_in"`
}

// Set is a complete checkpoint set for one (program, plan, policy):
// one State per plan point plus everything needed to re-run the plan
// with zero fast-forward on a machine that has never seen the program
// — the code image travels inside the set (Nugget-style self-contained
// snippets).
type Set struct {
	ProgramName string
	ProgramHash string
	// Assembly is the complete disassembled code image; Load
	// reassembles it, so a set is executable from the files alone.
	Assembly string
	DataSize int64
	Plan     *sampling.Plan
	Policy   Policy
	States   []*State

	// Program is the in-memory guest the set was built from (or
	// reassembled by Load). It is identity, not content: ProgramHash
	// is what Match trusts.
	Program *prog.Program
}

// SetFile and point file naming inside a set directory. The layout is
// deterministic: a manifest plus one binary state file per point.
const (
	ManifestFile = "set.json"
	pointFileFmt = "point-%04d.ckpt"
)

// manifest is the JSON structure of ManifestFile. Its own integrity
// hash is computed over the canonical encoding with ManifestSHA256
// set to the empty string.
type manifest struct {
	Format         string       `json:"format"`
	Version        int          `json:"version"`
	ProgramName    string       `json:"program_name"`
	ProgramHash    string       `json:"program_hash"`
	DataSize       int64        `json:"data_size"`
	Assembly       string       `json:"assembly"`
	Plan           planManifest `json:"plan"`
	Policy         Policy       `json:"policy"`
	Points         []pointEntry `json:"points"`
	ManifestSHA256 string       `json:"manifest_sha256"`
}

type planManifest struct {
	Benchmark  string          `json:"benchmark"`
	Method     string          `json:"method"`
	TotalInsts uint64          `json:"total_insts"`
	Points     []pointManifest `json:"points"`
}

type pointManifest struct {
	Start    uint64  `json:"start"`
	End      uint64  `json:"end"`
	Weight   float64 `json:"weight"`
	Level    int     `json:"level"`
	Interval int     `json:"interval"`
	Parent   int     `json:"parent"`
}

type pointEntry struct {
	File   string `json:"file"`
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
	Insts  uint64 `json:"insts"` // snapshot position (the warm start)
}

const manifestFormat = "mlpa-ckpt-set"

// manifestVersion is the manifest's version, separate from the state
// files' wire-format Version. Version 1 manifests carried a run-ahead
// length in the policy; Load refuses them by their version.
const manifestVersion = 2

// Match verifies the set applies to (p, plan, pol): same program
// content hash, structurally identical plan, identical warm policy,
// and one state per point. Violations wrap ErrMismatch.
func (s *Set) Match(p *prog.Program, plan *sampling.Plan, pol Policy) error {
	if h := ProgramHash(p); h != s.ProgramHash {
		return fmt.Errorf("%w: set built for program %s (%.12s…), executing %s (%.12s…)",
			ErrMismatch, s.ProgramName, s.ProgramHash, p.Name, h)
	}
	if plan.Benchmark != s.Plan.Benchmark || plan.Method != s.Plan.Method ||
		plan.TotalInsts != s.Plan.TotalInsts || len(plan.Points) != len(s.Plan.Points) {
		return fmt.Errorf("%w: set built for plan %s/%s (%d points, %d insts), executing %s/%s (%d points, %d insts)",
			ErrMismatch, s.Plan.Benchmark, s.Plan.Method, len(s.Plan.Points), s.Plan.TotalInsts,
			plan.Benchmark, plan.Method, len(plan.Points), plan.TotalInsts)
	}
	for i, pt := range plan.Points {
		if pt != s.Plan.Points[i] {
			return fmt.Errorf("%w: plan point %d differs: set has [%d,%d) w=%v, plan has [%d,%d) w=%v",
				ErrMismatch, i, s.Plan.Points[i].Start, s.Plan.Points[i].End, s.Plan.Points[i].Weight,
				pt.Start, pt.End, pt.Weight)
		}
	}
	if pol != s.Policy {
		return fmt.Errorf("%w: set captured under policy %+v, executing under %+v", ErrMismatch, s.Policy, pol)
	}
	if len(s.States) != len(plan.Points) {
		return fmt.Errorf("%w: %d states for %d points", ErrMismatch, len(s.States), len(plan.Points))
	}
	for i, st := range s.States {
		if st.Index != i {
			return fmt.Errorf("%w: state %d carries index %d", ErrMismatch, i, st.Index)
		}
	}
	return nil
}

// Save writes the set's deterministic on-disk layout under dir: one
// binary state file per point plus the integrity-hashed manifest.
func (s *Set) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	man := manifest{
		Format:      manifestFormat,
		Version:     manifestVersion,
		ProgramName: s.ProgramName,
		ProgramHash: s.ProgramHash,
		DataSize:    s.DataSize,
		Assembly:    s.Assembly,
		Policy:      s.Policy,
		Plan: planManifest{
			Benchmark:  s.Plan.Benchmark,
			Method:     s.Plan.Method,
			TotalInsts: s.Plan.TotalInsts,
		},
	}
	for _, pt := range s.Plan.Points {
		man.Plan.Points = append(man.Plan.Points, pointManifest{
			Start: pt.Start, End: pt.End, Weight: pt.Weight,
			Level: pt.Level, Interval: pt.Interval, Parent: pt.Parent,
		})
	}
	for i, st := range s.States {
		data, err := st.Encode()
		if err != nil {
			return fmt.Errorf("ckpt: save state %d: %w", i, err)
		}
		name := fmt.Sprintf(pointFileFmt, i)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return fmt.Errorf("ckpt: save: %w", err)
		}
		sum := sha256.Sum256(data)
		man.Points = append(man.Points, pointEntry{
			File: name, Bytes: len(data), SHA256: hex.EncodeToString(sum[:]), Insts: st.Insts,
		})
	}
	body, err := sealManifest(&man)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), body, 0o644); err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	return nil
}

// sealManifest computes the manifest's self-hash and returns the final
// encoding: the hash field is hashed as empty, then filled in.
func sealManifest(man *manifest) ([]byte, error) {
	man.ManifestSHA256 = ""
	canon, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ckpt: manifest: %w", err)
	}
	sum := sha256.Sum256(canon)
	man.ManifestSHA256 = hex.EncodeToString(sum[:])
	body, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ckpt: manifest: %w", err)
	}
	return append(body, '\n'), nil
}

// Load reads, integrity-checks and reassembles a checkpoint set saved
// by Save. Every layer is verified: the manifest's self-hash, each
// state file's manifest-recorded hash and its embedded trailer, the
// reassembled program's content hash, and the plan's structural
// invariants. The returned set carries the reassembled Program.
func Load(dir string) (*Set, error) {
	body, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("ckpt: load: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(body, &man); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrFormat, err)
	}
	if man.Format != manifestFormat || man.Version != manifestVersion {
		return nil, fmt.Errorf("%w: manifest format %q version %d (want %q version %d)",
			ErrFormat, man.Format, man.Version, manifestFormat, manifestVersion)
	}
	want := man.ManifestSHA256
	man.ManifestSHA256 = ""
	canon, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ckpt: manifest: %w", err)
	}
	if sum := sha256.Sum256(canon); hex.EncodeToString(sum[:]) != want {
		return nil, fmt.Errorf("%w: manifest self-hash does not match content", ErrIntegrity)
	}
	man.ManifestSHA256 = want

	p, err := prog.Assemble(man.ProgramName, man.Assembly)
	if err != nil {
		return nil, fmt.Errorf("%w: embedded assembly: %v", ErrFormat, err)
	}
	p.DataSize = man.DataSize
	if h := ProgramHash(p); h != man.ProgramHash {
		return nil, fmt.Errorf("%w: embedded assembly hashes to %.12s…, manifest records %.12s…",
			ErrIntegrity, h, man.ProgramHash)
	}

	plan := &sampling.Plan{
		Benchmark:  man.Plan.Benchmark,
		Method:     man.Plan.Method,
		TotalInsts: man.Plan.TotalInsts,
	}
	for _, pt := range man.Plan.Points {
		plan.Points = append(plan.Points, sampling.Point{
			Start: pt.Start, End: pt.End, Weight: pt.Weight,
			Level: pt.Level, Interval: pt.Interval, Parent: pt.Parent,
		})
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("%w: manifest plan: %v", ErrFormat, err)
	}
	if len(man.Points) != len(plan.Points) {
		return nil, fmt.Errorf("%w: manifest lists %d state files for %d plan points",
			ErrFormat, len(man.Points), len(plan.Points))
	}

	set := &Set{
		ProgramName: man.ProgramName,
		ProgramHash: man.ProgramHash,
		Assembly:    man.Assembly,
		DataSize:    man.DataSize,
		Plan:        plan,
		Policy:      man.Policy,
		Program:     p,
	}
	for i, ent := range man.Points {
		data, err := os.ReadFile(filepath.Join(dir, ent.File))
		if err != nil {
			return nil, fmt.Errorf("ckpt: load state %d: %w", i, err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != ent.SHA256 {
			return nil, fmt.Errorf("%w: state file %s does not match its manifest hash", ErrIntegrity, ent.File)
		}
		st, err := Decode(data)
		if err != nil {
			return nil, fmt.Errorf("ckpt: load state %d (%s): %w", i, ent.File, err)
		}
		if st.Index != i || st.Insts != ent.Insts {
			return nil, fmt.Errorf("%w: state file %s carries index %d at position %d, manifest expects index %d at %d",
				ErrMismatch, ent.File, st.Index, st.Insts, i, ent.Insts)
		}
		set.States = append(set.States, st)
	}
	return set, nil
}

// Verify checks a saved set end to end without keeping it: it is Load
// with the result discarded.
func Verify(dir string) error {
	_, err := Load(dir)
	return err
}

// ApproxBytes estimates the set's in-memory/encoded footprint for
// cache accounting.
func (s *Set) ApproxBytes() int {
	n := len(s.Assembly) + 1024
	for _, st := range s.States {
		n += st.EncodedBytes()
	}
	return n
}

package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// ManifestSchema is the journal schema version written by this
// package. Bump it whenever the meaning or shape of journal records
// changes incompatibly.
const ManifestSchema = 2

// Manifest identifies one run: what was executed, under which knobs,
// by which tool. It is written as the journal's first record so a
// journal file is self-describing.
type Manifest struct {
	Schema     int      `json:"schema"`
	Tool       string   `json:"tool"`
	Command    string   `json:"command,omitempty"`
	Benchmark  string   `json:"benchmark,omitempty"`
	Method     string   `json:"method,omitempty"`
	Size       string   `json:"size,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	Configs    []string `json:"configs,omitempty"`
	ConfigHash string   `json:"config_hash,omitempty"`
	Args       []string `json:"args,omitempty"`
}

// EmitManifest journals m with its schema field forced to the current
// version. Nil-safe.
func (r *Runtime) EmitManifest(m Manifest) {
	if r == nil || r.sink == nil {
		return
	}
	m.Schema = ManifestSchema
	rec := Record{
		"ev":     "manifest",
		"schema": m.Schema,
		"tool":   m.Tool,
	}
	if m.Command != "" {
		rec["command"] = m.Command
	}
	if m.Benchmark != "" {
		rec["benchmark"] = m.Benchmark
	}
	if m.Method != "" {
		rec["method"] = m.Method
	}
	if m.Size != "" {
		rec["size"] = m.Size
	}
	if m.Seed != 0 {
		rec["seed"] = m.Seed
	}
	if len(m.Configs) > 0 {
		rec["configs"] = m.Configs
	}
	if m.ConfigHash != "" {
		rec["config_hash"] = m.ConfigHash
	}
	if len(m.Args) > 0 {
		rec["args"] = m.Args
	}
	r.sink.Emit(rec)
}

// ConfigHash returns a short stable fingerprint of any
// JSON-serializable configuration value: FNV-64a over its canonical
// JSON encoding (encoding/json sorts map keys, and struct fields keep
// declaration order, so identical configs hash identically across
// runs).
func ConfigHash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unhashable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

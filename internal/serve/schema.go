// Package serve is the sampling-as-a-service daemon: a long-running
// HTTP/JSON API over the sampled-simulation pipeline. Clients submit a
// guest program (suite benchmark name or assembly source) plus a
// method/config selection and retrieve phase analyses, sampling plans
// and whole-program estimates.
//
// Production behaviour is the design center:
//
//   - Every response body is a pure function of the request: wall-clock
//     and host-dependent fields are excluded from the schema, so a
//     result computed once can be replayed byte-for-byte from the
//     content-hash cache (SHA-256 of the assembled program plus the
//     canonicalized request) and concurrent identical requests coalesce
//     onto a single execution. Cache disposition travels out-of-band in
//     the X-Mlpa-Cache header (miss, coalesced or hit).
//   - A bounded admission pool caps concurrent pipeline executions
//     across requests. Plans are cached per plan identity and
//     estimates restore from portable checkpoint sets cached per plan,
//     so requests against the same plan reuse one selection and one
//     fast-forward pass across configurations.
//   - Requests are bounded (body size, program instruction budget) and
//     time-limited; failures are structured JSON errors with stable
//     codes, never panics.
//   - Shutdown drains: accepted requests complete, new API requests are
//     rejected with 503 {"code":"draining"}, and the obs telemetry
//     routes (/metrics, /progress, pprof) stay up throughout.
//
// See docs/SERVICE.md for the endpoint and schema reference.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"mlpa/internal/bench"
	"mlpa/internal/ckpt"
	"mlpa/internal/coasts"
	"mlpa/internal/multilevel"
	"mlpa/internal/pipeline"
	"mlpa/internal/prog"
	"mlpa/internal/simpoint"
	"mlpa/internal/smarts"
)

// Request is the JSON body every /v1 endpoint accepts. Exactly one of
// Benchmark and Assembly selects the guest program; the remaining
// fields select what to compute over it. Unset fields take the
// documented defaults, and unknown fields are rejected so schema typos
// fail loudly instead of silently computing something else.
type Request struct {
	// Benchmark names a built-in suite benchmark (see mlpa.Suite).
	Benchmark string `json:"benchmark,omitempty"`
	// Assembly is guest assembly source for a custom program.
	Assembly string `json:"assembly,omitempty"`
	// Name labels a custom Assembly program (default "custom").
	Name string `json:"name,omitempty"`
	// Size is the suite scale for Benchmark programs: tiny, small or
	// ref (default tiny).
	Size string `json:"size,omitempty"`
	// Method selects the sampling method for plan/estimate: coasts,
	// simpoint, multilevel or smarts (default multilevel).
	Method string `json:"method,omitempty"`
	// Config selects the Table I machine configuration for estimate:
	// A or B (default A).
	Config string `json:"config,omitempty"`
	// Seed drives projection and clustering determinism (default 1).
	Seed int64 `json:"seed,omitempty"`
	// IntervalLen overrides the fine-grained interval length in
	// instructions. Zero picks the suite scale's interval for
	// Benchmark programs and 1/100 of the measured dynamic length
	// (minimum 1000) for Assembly programs.
	IntervalLen uint64 `json:"interval_len,omitempty"`
}

// Supported request methods, beyond the paper's three, include SMARTS
// systematic sampling.
var methods = map[string]bool{
	coasts.MethodName:     true,
	simpoint.MethodName:   true,
	multilevel.MethodName: true,
	smarts.MethodName:     true,
}

// apiError is a structured request failure: an HTTP status, a stable
// machine-readable code and a human-readable message.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// errorBody is the JSON envelope every non-2xx API response carries.
type errorBody struct {
	Error *apiError `json:"error"`
}

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// Stable error codes (docs/SERVICE.md documents the full table).
const (
	codeBadJSON        = "bad_json"
	codeBadField       = "bad_field"
	codeBadProgram     = "bad_program"
	codeUnverifiable   = "unverifiable_program"
	codeBudgetExceeded = "budget_exceeded"
	codeTooLarge       = "body_too_large"
	codeProgramTooBig  = "program_too_large"
	codeNotFound       = "not_found"
	codeBadMethod      = "method_not_allowed"
	codeDraining       = "draining"
	codeTimeout        = "timeout"
	codeInternal       = "internal"
)

// decodeRequest parses and normalizes a request body. Every failure is
// a structured 4xx apiError; the decoder never panics on any input.
func decodeRequest(data []byte) (Request, *apiError) {
	var req Request
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, badRequest(codeBadJSON, "decoding request body: %v", err)
	}
	// Trailing garbage after the JSON value is a malformed body, not a
	// second request.
	if dec.More() {
		return req, badRequest(codeBadJSON, "trailing data after request object")
	}
	return normalize(req)
}

// normalize applies defaults and validates every enumerated field.
func normalize(req Request) (Request, *apiError) {
	if (req.Benchmark == "") == (req.Assembly == "") {
		return req, badRequest(codeBadField, "exactly one of benchmark and assembly must be set")
	}
	if req.Name == "" {
		req.Name = "custom"
	}
	if req.Benchmark != "" && req.Name != "custom" {
		return req, badRequest(codeBadField, "name is only meaningful with assembly")
	}
	if req.Size == "" {
		req.Size = "tiny"
	}
	if _, err := bench.ParseSize(req.Size); err != nil {
		return req, badRequest(codeBadField, "%v", err)
	}
	if req.Method == "" {
		req.Method = multilevel.MethodName
	}
	if !methods[req.Method] {
		return req, badRequest(codeBadField, "unknown method %q (want coasts, simpoint, multilevel or smarts)", req.Method)
	}
	if req.Config == "" {
		req.Config = "A"
	}
	if req.Config != "A" && req.Config != "B" {
		return req, badRequest(codeBadField, "unknown config %q (want A or B)", req.Config)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	return req, nil
}

// progHash is the content hash of a guest program: SHA-256 over its
// name, data size and complete disassembly. Two programs with equal
// hashes produce identical analyses, plans and estimates, which is
// what makes the hash a sound result-cache key component. The
// definition lives in internal/ckpt, so the hash a checkpoint set
// binds its program identity to and the hash this service caches
// under can never drift apart.
func progHash(p *prog.Program) string {
	return ckpt.ProgramHash(p)
}

// cacheKey is the canonicalized request a result is cached under. Only
// the fields that can change the endpoint's response participate:
// analyze ignores the method, config, seed and interval; plan ignores
// the config. The program is represented by its content hash, so a
// suite benchmark and byte-identical resubmissions of the same
// assembly dedupe to one entry.
type cacheKey struct {
	Endpoint string `json:"endpoint"`
	Program  string `json:"program"`
	Method   string `json:"method,omitempty"`
	Config   string `json:"config,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Interval uint64 `json:"interval,omitempty"`
}

// hash returns the key's canonical SHA-256 (hex). The JSON encoding of
// a fixed struct is deterministic, so equal keys always collide.
func (k cacheKey) hash() string {
	b, err := json.Marshal(k)
	if err != nil {
		// A struct of strings and integers cannot fail to marshal; keep
		// the key usable even if it somehow does.
		b = []byte(fmt.Sprintf("%+v", k))
	}
	sum := sha256.Sum256(b)
	return k.Endpoint + ":" + hex.EncodeToString(sum[:])
}

func keyFor(endpoint, programHash string, req Request) cacheKey {
	k := cacheKey{Endpoint: endpoint, Program: programHash}
	switch endpoint {
	case "analyze":
		// Static analysis depends on the program alone.
	case "plan":
		k.Method, k.Seed, k.Interval = req.Method, req.Seed, req.IntervalLen
	case "estimate":
		k.Method, k.Config, k.Seed, k.Interval = req.Method, req.Config, req.Seed, req.IntervalLen
	case "ckpt":
		// The plan identity. Plans and the checkpoint sets built from
		// them capture configuration-independent state, so the config
		// is deliberately absent: every sensitivity config of the same
		// plan shares one selection and one set.
		k.Method, k.Seed, k.Interval = req.Method, req.Seed, req.IntervalLen
	}
	return k
}

// planKey is the plan-identity key the plan cache and the
// checkpoint-set cache share.
func planKey(programHash string, req Request) string {
	return keyFor("ckpt", programHash, req).hash()
}

// ProgramInfo describes the resolved guest program; every response
// carries one, so clients can verify which content hash served them.
type ProgramInfo struct {
	Name         string `json:"name"`
	Hash         string `json:"hash"`
	Instructions int    `json:"instructions"`
	BasicBlocks  int    `json:"basic_blocks"`
	DataSize     int64  `json:"data_size"`
}

// LoopInfo is one natural loop of the static forest.
type LoopInfo struct {
	Head   int64 `json:"head"`
	Depth  int   `json:"depth"`
	Blocks int   `json:"blocks"`
}

// AnalyzeResponse is the /v1/analyze response body: the static view of
// the program (verifier, CFG, natural-loop forest). It involves no
// guest execution, so it is cheap enough to serve unauthenticated
// traffic and fuzzers alike.
type AnalyzeResponse struct {
	Program  ProgramInfo `json:"program"`
	Verified bool        `json:"verified"`
	Loops    []LoopInfo  `json:"loops"`
	MaxDepth int         `json:"max_loop_depth"`
}

// PointJSON is one simulation point of a plan.
type PointJSON struct {
	Start  uint64  `json:"start"`
	End    uint64  `json:"end"`
	Weight float64 `json:"weight"`
	Level  int     `json:"level"`
}

// PlanResponse is the /v1/plan response body.
type PlanResponse struct {
	Program         ProgramInfo `json:"program"`
	Benchmark       string      `json:"benchmark"`
	Method          string      `json:"method"`
	TotalInsts      uint64      `json:"total_insts"`
	IntervalLen     uint64      `json:"interval_len"`
	Points          []PointJSON `json:"points"`
	DetailedInsts   uint64      `json:"detailed_insts"`
	FunctionalInsts uint64      `json:"functional_insts"`
	DetailedFrac    float64     `json:"detailed_fraction"`
	LastPosition    float64     `json:"last_position"`
}

// PointRecordJSON is one executed point of an estimate. It mirrors
// pipeline.PointRecord minus the wall-clock fields: the response body
// must stay a pure function of the request so cached replays are
// byte-identical.
type PointRecordJSON struct {
	Index      int     `json:"index"`
	Start      uint64  `json:"start"`
	End        uint64  `json:"end"`
	Weight     float64 `json:"weight"`
	Insts      uint64  `json:"insts"`
	Cycles     uint64  `json:"cycles"`
	CPI        float64 `json:"cpi"`
	L1Hit      float64 `json:"l1_hit"`
	L2Hit      float64 `json:"l2_hit"`
	L1Accesses uint64  `json:"l1_accesses"`
	L1Hits     uint64  `json:"l1_hits"`
	L2Accesses uint64  `json:"l2_accesses"`
	L2Hits     uint64  `json:"l2_hits"`

	// Checkpoint metadata: the static live-in summary at the point
	// boundary (the portable-checkpoint storage schema), so detailed
	// simulation of any point can later be sharded to a worker holding
	// only this state.
	LiveInPC  int64  `json:"livein_pc"`
	LiveInInt uint32 `json:"livein_int"`
	LiveInFP  uint32 `json:"livein_fp"`
	LiveInMem bool   `json:"livein_mem"`
}

// EstimateResponse is the /v1/estimate response body: the weighted
// whole-program estimates and per-point records of one executed plan.
type EstimateResponse struct {
	Program         ProgramInfo       `json:"program"`
	Benchmark       string            `json:"benchmark"`
	Method          string            `json:"method"`
	Config          string            `json:"config"`
	CPI             float64           `json:"cpi"`
	L1Hit           float64           `json:"l1_hit"`
	L2Hit           float64           `json:"l2_hit"`
	Points          int               `json:"points"`
	DetailedInsts   uint64            `json:"detailed_insts"`
	FunctionalInsts uint64            `json:"functional_insts"`
	TotalInsts      uint64            `json:"total_insts"`
	PointRecords    []PointRecordJSON `json:"point_records"`
}

// encodeEstimate builds the deterministic response body for an
// executed plan. Wall-clock fields are deliberately dropped.
func encodeEstimate(info ProgramInfo, cfgName string, est *pipeline.Estimate) EstimateResponse {
	resp := EstimateResponse{
		Program:         info,
		Benchmark:       est.Benchmark,
		Method:          est.Method,
		Config:          cfgName,
		CPI:             est.CPI,
		L1Hit:           est.L1Hit,
		L2Hit:           est.L2Hit,
		Points:          est.Points,
		DetailedInsts:   est.DetailedInsts,
		FunctionalInsts: est.FunctionalInsts,
		TotalInsts:      est.TotalInsts,
		PointRecords:    make([]PointRecordJSON, len(est.PointRecords)),
	}
	for i, r := range est.PointRecords {
		resp.PointRecords[i] = PointRecordJSON{
			Index:      r.Index,
			Start:      r.Start,
			End:        r.End,
			Weight:     r.Weight,
			Insts:      r.Insts,
			Cycles:     r.Cycles,
			CPI:        r.CPI,
			L1Hit:      r.L1Hit,
			L2Hit:      r.L2Hit,
			L1Accesses: r.L1Accesses,
			L1Hits:     r.L1Hits,
			L2Accesses: r.L2Accesses,
			L2Hits:     r.L2Hits,
			LiveInPC:   r.LiveIn.PC,
			LiveInInt:  r.LiveIn.Int,
			LiveInFP:   r.LiveIn.FP,
			LiveInMem:  r.LiveIn.Mem,
		}
	}
	return resp
}

// marshalBody encodes a response value into the canonical body bytes
// the cache stores: indented JSON with a trailing newline.
func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// asAPIError coerces any failure into an apiError: structured errors
// pass through, context failures map to the timeout code, and
// everything else — which for a probed, verified program should not
// happen — is an internal error.
func asAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &apiError{Status: http.StatusServiceUnavailable, Code: codeTimeout, Message: err.Error()}
	}
	return &apiError{Status: http.StatusInternalServerError, Code: codeInternal, Message: err.Error()}
}

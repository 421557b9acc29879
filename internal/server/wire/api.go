package wire

// This file is the versioned /v1 HTTP API surface: every request and
// response body the olgaprod shards and the olgarouter fleet router speak,
// as plain JSON-taggable structs. The server implements these types, the
// client package decodes them, and the router forwards them — one
// definition, three consumers, so the wire contract cannot drift between
// layers. Field order is fixed by the structs, and floats use
// encoding/json's shortest-round-trip formatting, so equal values marshal
// to equal bytes — the property the bit-replay gates depend on.

// APIVersion is the path prefix of the wire surface; every route lives
// under it.
const APIVersion = "v1"

// --- error envelope ---

// ErrorCode is a stable, machine-readable failure class; ErrorCodes lists
// every one. Codes are part of
// the wire contract: clients dispatch on them (retry, re-register, warm the
// model) instead of parsing English messages.
type ErrorCode string

const (
	// CodeBadSpec: the request body or parameters are malformed (HTTP 400).
	CodeBadSpec ErrorCode = "bad_spec"
	// CodeUnauthorized: missing or wrong bearer token (HTTP 401).
	CodeUnauthorized ErrorCode = "unauthorized"
	// CodeNotFound: no UDF instance with that name (HTTP 404).
	CodeNotFound ErrorCode = "not_found"
	// CodeAlreadyExists: the instance name is taken (HTTP 409).
	CodeAlreadyExists ErrorCode = "already_exists"
	// CodeModelCold: frozen reads need a model with ≥ 2 training points —
	// run learning traffic or restore a snapshot first (HTTP 409).
	CodeModelCold ErrorCode = "model_cold"
	// CodeNotOwner: learning traffic sent to a read replica; route it to
	// the owning writer shard (HTTP 409).
	CodeNotOwner ErrorCode = "not_owner"
	// CodeOverCapacity: admission control refused the request; honor
	// RetryAfterMS (HTTP 429).
	CodeOverCapacity ErrorCode = "over_capacity"
	// CodeInternal: unexpected server-side failure (HTTP 500).
	CodeInternal ErrorCode = "internal"
	// CodeNotReplicated: the requested snapshot sequence is not available
	// yet (HTTP 503 from replication fetch).
	CodeNotReplicated ErrorCode = "not_replicated"
	// CodeUnavailable: no shard could serve the request (router, HTTP 502).
	CodeUnavailable ErrorCode = "unavailable"
	// CodeDraining: the process is shutting down (HTTP 503).
	CodeDraining ErrorCode = "draining"
	// CodeDeadlineExceeded: the per-request deadline fired (HTTP 504).
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
)

// ErrorDetail is the payload of the structured error envelope.
type ErrorDetail struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// RetryAfterMS, when positive, is how long the client should wait
	// before retrying (set with over_capacity).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the body of every non-2xx /v1 response:
//
//	{"error":{"code":"over_capacity","message":"…","retry_after_ms":1000}}
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// --- registration ---

// SparseSpec selects the budgeted sparse emulator for an instance.
// (Defined in specs.go; referenced here by RegisterSpec.)

// RegisterSpec describes one UDF registration. It doubles as the snapshot
// metadata record: together with a snapshot file it reconstructs the
// instance on boot or on a replica.
type RegisterSpec struct {
	// Name is the instance name; defaults to the catalog name with "/"
	// replaced by "-".
	Name string `json:"name,omitempty"`
	// UDF is the catalog function to serve (see GET /v1/catalog).
	UDF string `json:"udf"`
	// Eps and Delta are the (ε, δ) accuracy contract for this instance.
	// Zero selects the paper defaults (0.1, 0.05).
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// Sparse, when set, serves this instance on the budgeted sparse
	// emulator instead of the exact GP.
	Sparse *SparseSpec `json:"sparse,omitempty"`
}

// RegisterRequest is the POST /v1/udfs body: a RegisterSpec plus optional
// warm-up inputs evaluated in learn mode before the registration returns.
type RegisterRequest struct {
	Name       string      `json:"name,omitempty"`
	UDF        string      `json:"udf"`
	Eps        float64     `json:"eps,omitempty"`
	Delta      float64     `json:"delta,omitempty"`
	Sparse     *SparseSpec `json:"sparse,omitempty"`
	Warmup     []InputSpec `json:"warmup,omitempty"`
	WarmupSeed int64       `json:"warmup_seed,omitempty"`
}

// Spec extracts the persistent registration record from the request.
func (r RegisterRequest) Spec() RegisterSpec {
	return RegisterSpec{Name: r.Name, UDF: r.UDF, Eps: r.Eps, Delta: r.Delta, Sparse: r.Sparse}
}

// UDFInfo is the GET /v1/udfs entry for one registered instance.
type UDFInfo struct {
	Name           string  `json:"name"`
	UDF            string  `json:"udf"`
	Dim            int     `json:"dim"`
	Eps            float64 `json:"eps"`
	Delta          float64 `json:"delta"`
	TrainingPoints int64   `json:"training_points"`
	MCSamples      int     `json:"mc_samples_per_input"`
	// SparseBudget is the inducing-point cap when the instance runs on the
	// budgeted sparse emulator; 0 means the exact GP.
	SparseBudget int `json:"sparse_budget,omitempty"`
	// ModelSeq is the per-UDF model sequence number: it increments on
	// every model mutation and orders snapshots across replicas.
	ModelSeq int64 `json:"model_seq"`
	// Replica marks a frozen read replica ingesting snapshots from the
	// owning writer shard; learning traffic is refused with not_owner.
	Replica bool `json:"replica,omitempty"`
}

// UDFList is the GET /v1/udfs response.
type UDFList struct {
	UDFs []UDFInfo `json:"udfs"`
}

// --- evaluation ---

// EvalRequest is the POST /v1/udfs/{name}/eval body. Learn defaults to
// true (the input contributes to the model); learn=false serves from a
// frozen clone, making the response a pure, bit-replayable function of
// (model state, input, seed).
type EvalRequest struct {
	Input InputSpec `json:"input"`
	Seed  int64     `json:"seed,omitempty"`
	Learn *bool     `json:"learn,omitempty"`
}

// EvalResult is the wire form of one evaluated tuple. SupportHash digests
// every sample of the full output distribution (FNV-64a over the raw
// float64 bits), making line equality a strong bit-replay check without
// shipping thousands of floats.
type EvalResult struct {
	Seq       int64   `json:"seq"`
	Engine    string  `json:"engine"`
	Eps       float64 `json:"eps"`
	Bound     float64 `json:"bound"`
	BoundGP   float64 `json:"bound_gp"`
	BoundMC   float64 `json:"bound_mc"`
	MetBudget bool    `json:"met_budget"`

	Mean        float64            `json:"mean"`
	Quantiles   map[string]float64 `json:"quantiles"`
	SupportHash string             `json:"support_hash"`

	Samples     int  `json:"samples"`
	UDFCalls    int  `json:"udf_calls"`
	PointsAdded int  `json:"points_added"`
	LocalPoints int  `json:"local_points"`
	Filtered    bool `json:"filtered,omitempty"`
}

// StreamLine is one NDJSON request line of POST /v1/udfs/{name}/stream.
type StreamLine struct {
	Input InputSpec `json:"input"`
}

// StreamResult is one NDJSON response line: either a result or a terminal
// error (after which the stream ends). ErrorCode carries the machine-
// readable class of a terminal stream error, mirroring the HTTP envelope.
type StreamResult struct {
	EvalResult
	Error     string    `json:"error,omitempty"`
	ErrorCode ErrorCode `json:"error_code,omitempty"`
}

// --- stats, health, snapshots ---

// UDFStats is the per-UDF /v1/stats record; the savings fields quantify
// the paper's core economics: UDF calls actually paid vs what plain Monte
// Carlo would have cost for the same served traffic at the same (ε, δ).
type UDFStats struct {
	Name              string  `json:"name"`
	UDF               string  `json:"udf"`
	Eps               float64 `json:"eps"`
	Delta             float64 `json:"delta"`
	Inputs            int64   `json:"inputs"`
	TrainingPoints    int     `json:"training_points"`
	UDFCalls          int     `json:"udf_calls"`
	Retrainings       int     `json:"retrainings"`
	Filtered          int     `json:"filtered"`
	MCSamplesPerInput int     `json:"mc_samples_per_input"`
	MCEquivalentCalls int64   `json:"mc_equivalent_calls"`
	SavedCalls        int64   `json:"saved_calls"`
	SavingsRatio      float64 `json:"savings_ratio"`
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	UDFs              []UDFStats `json:"udfs"`
	TotalSavedCalls   int64      `json:"total_saved_calls"`
	TotalSavingsRatio float64    `json:"total_savings_ratio,omitempty"`
}

// HealthResponse is the GET /v1/healthz body. The router adds per-shard
// statuses; a plain shard reports only its own gauges.
type HealthResponse struct {
	Status    string        `json:"status"`
	UptimeSec float64       `json:"uptime_sec"`
	UDFs      int           `json:"udfs"`
	InFlight  int           `json:"inflight"`
	Capacity  int           `json:"capacity"`
	Shards    []ShardHealth `json:"shards,omitempty"`
}

// ShardHealth is one fleet member's liveness as seen by the router.
type ShardHealth struct {
	Addr string `json:"addr"`
	Up   bool   `json:"up"`
}

// SnapshotInfo describes one persisted snapshot.
type SnapshotInfo struct {
	Name           string `json:"name"`
	TrainingPoints int    `json:"training_points"`
	ModelSeq       int64  `json:"model_seq"`
	Path           string `json:"path"`
}

// SnapshotResponse is the POST /v1/snapshot body.
type SnapshotResponse struct {
	Snapshots []SnapshotInfo `json:"snapshots"`
}

// CatalogResponse is the GET /v1/catalog body. Entries are the server's
// CatalogEntry records; kept as raw-friendly struct here to avoid an
// import cycle.
type CatalogUDF struct {
	Name        string `json:"name"`
	Dim         int    `json:"dim"`
	Description string `json:"description"`
}

// CatalogResponse is the GET /v1/catalog body.
type CatalogResponse struct {
	UDFs []CatalogUDF `json:"udfs"`
}

// --- replication ---

// ReplicaState is one entry of GET /v1/replication/udfs: which UDFs this
// shard hosts, at which model sequence, and whether it is the writer
// (owner) or a frozen replica.
type ReplicaState struct {
	Name  string       `json:"name"`
	Seq   int64        `json:"seq"`
	Owned bool         `json:"owned"`
	Spec  RegisterSpec `json:"spec"`
}

// ReplicationList is the GET /v1/replication/udfs response. Version is a
// process-local monotonic counter bumped on every model mutation; pass it
// back as ?since_version= to long-poll for deltas (subscribe). Epoch and
// Shards carry the shard's current fleet membership view, so membership
// changes gossip over the same long-poll surface the model deltas use:
// any shard (or router) that sees a higher epoch than its own adopts it.
type ReplicationList struct {
	Version int64          `json:"version"`
	UDFs    []ReplicaState `json:"udfs"`
	// Epoch is the membership epoch this shard currently holds; 0 for the
	// boot-time membership, omitted entirely outside fleet mode.
	Epoch int64 `json:"epoch,omitempty"`
	// Shards is the shard list of that epoch (sorted, including self).
	Shards []string `json:"shards,omitempty"`
}

// --- fleet membership ---

// Membership is one versioned fleet configuration: a monotonic epoch number
// plus the full shard list it describes. The epoch totally orders
// configurations — every fleet member adopts the highest epoch it sees and
// rebuilds its placement ring from that epoch's shard list, so placement
// stays a pure function of (membership, name) even while members disagree
// transiently during a change.
type Membership struct {
	Epoch  int64    `json:"epoch"`
	Shards []string `json:"shards"`
}

// FleetMembersRequest is the POST /v1/fleet/members admin body on the
// router: op "join" adds Shard to the membership, op "leave" removes it.
// The router mints the next epoch and broadcasts it to every shard (old and
// new); gossip over the replication lists repairs any member it missed.
type FleetMembersRequest struct {
	Op    string `json:"op"`
	Shard string `json:"shard"`
}

// Replication fetch headers: GET /v1/udfs/{name}/snapshot serves the raw
// versioned snapshot bytes (core format) with the model sequence and the
// JSON-encoded RegisterSpec in these headers.
const (
	HeaderModelSeq = "Olgapro-Model-Seq"
	HeaderSpec     = "Olgapro-Spec"
)

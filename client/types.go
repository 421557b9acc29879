package client

// Public aliases for the /v1 wire surface, so client consumers outside this
// module can name every request/response type without reaching into
// internal packages.

import "olgapro/internal/server/wire"

type (
	// ErrorCode is a stable, machine-readable failure class (APIError.Code).
	ErrorCode = wire.ErrorCode
	// RegisterSpec is the persistent registration record of one instance.
	RegisterSpec = wire.RegisterSpec
	// RegisterRequest is the POST /v1/udfs body (spec + warm-up inputs).
	RegisterRequest = wire.RegisterRequest
	// SparseSpec selects the budgeted sparse emulator.
	SparseSpec = wire.SparseSpec
	// InputSpec is one uncertain input tuple, attribute name → distribution.
	InputSpec = wire.InputSpec
	// DistSpec is the wire form of one scalar distribution.
	DistSpec = wire.DistSpec
	// EvalRequest is the POST /v1/udfs/{name}/eval body.
	EvalRequest = wire.EvalRequest
	// EvalResult is one evaluated tuple with its (ε, δ) bound metadata.
	EvalResult = wire.EvalResult
	// StreamLine is one NDJSON request line of a stream session.
	StreamLine = wire.StreamLine
	// StreamResult is one NDJSON response line (result or terminal error).
	StreamResult = wire.StreamResult
	// UDFInfo describes one registered instance.
	UDFInfo = wire.UDFInfo
	// UDFList is the GET /v1/udfs response.
	UDFList = wire.UDFList
	// UDFStats is the per-UDF /v1/stats record.
	UDFStats = wire.UDFStats
	// StatsResponse is the GET /v1/stats body.
	StatsResponse = wire.StatsResponse
	// HealthResponse is the GET /v1/healthz body.
	HealthResponse = wire.HealthResponse
	// ShardHealth is one fleet member's liveness as seen by the router.
	ShardHealth = wire.ShardHealth
	// SnapshotInfo describes one persisted snapshot.
	SnapshotInfo = wire.SnapshotInfo
	// SnapshotResponse is the POST /v1/snapshot body.
	SnapshotResponse = wire.SnapshotResponse
	// CatalogUDF is one built-in catalog entry.
	CatalogUDF = wire.CatalogUDF
	// CatalogResponse is the GET /v1/catalog body.
	CatalogResponse = wire.CatalogResponse
	// ReplicaState is one entry of GET /v1/replication/udfs.
	ReplicaState = wire.ReplicaState
	// ReplicationList is the GET /v1/replication/udfs response.
	ReplicationList = wire.ReplicationList
	// Membership is one fleet configuration: a monotonic epoch + shard list.
	Membership = wire.Membership
	// FleetMembersRequest is the POST /v1/fleet/members admin body.
	FleetMembersRequest = wire.FleetMembersRequest
	// ErrorDetail and ErrorEnvelope form the structured error body every
	// non-2xx /v1 response carries.
	ErrorDetail   = wire.ErrorDetail
	ErrorEnvelope = wire.ErrorEnvelope
	// PredicateSpec is a §5.5 TEP filter: P(a < y < b) with threshold theta.
	PredicateSpec = wire.PredicateSpec
	// StatSpec picks the scalar statistic an aggregate or ranking reads from
	// an uncertain attribute.
	StatSpec = wire.StatSpec
	// AggSpec is one aggregate column of a window or group-by stage.
	AggSpec = wire.AggSpec
	// TopKSpec is the possible/certain top-k stage of a query plan.
	TopKSpec = wire.TopKSpec
	// WindowSpec is the positional sliding-window stage of a query plan.
	WindowSpec = wire.WindowSpec
	// GroupBySpec is the grouped-aggregation stage of a query plan.
	GroupBySpec = wire.GroupBySpec
	// BoundedJSON is a [certain, possible] interval on the wire.
	BoundedJSON = wire.BoundedJSON
	// QueryRow is one input tuple of a bounded query's request relation.
	QueryRow = wire.QueryRow
	// QueryRequest is the POST /v1/query body.
	QueryRequest = wire.QueryRequest
	// QueryValue is one output attribute of an answer tuple.
	QueryValue = wire.QueryValue
	// QueryResponse is the POST /v1/query answer relation.
	QueryResponse = wire.QueryResponse
)

// MaxQueryRows caps the request relation of one /v1/query (and the merged
// answer of one cross-shard query) — larger workloads should stream.
const MaxQueryRows = wire.MaxQueryRows

// Stable error codes (see wire for the full documentation of each).
const (
	CodeBadSpec          = wire.CodeBadSpec
	CodeUnauthorized     = wire.CodeUnauthorized
	CodeNotFound         = wire.CodeNotFound
	CodeAlreadyExists    = wire.CodeAlreadyExists
	CodeModelCold        = wire.CodeModelCold
	CodeNotOwner         = wire.CodeNotOwner
	CodeOverCapacity     = wire.CodeOverCapacity
	CodeInternal         = wire.CodeInternal
	CodeNotReplicated    = wire.CodeNotReplicated
	CodeUnavailable      = wire.CodeUnavailable
	CodeDraining         = wire.CodeDraining
	CodeDeadlineExceeded = wire.CodeDeadlineExceeded
)

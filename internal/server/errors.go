package server

// This file is the one place HTTP failures are shaped, for shards and the
// fleet router alike: every refusal is written by WriteError, so every
// non-2xx response on the /v1 surface carries the same structured JSON
// envelope
//
//	{"error":{"code":"over_capacity","message":"…","retry_after_ms":1000}}
//
// with a stable machine-readable code (wire.ErrorCode). Clients dispatch
// on the code; the message is for humans.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"olgapro/internal/server/wire"
)

// retryAfterMS is the backoff hint attached to admission refusals (429),
// mirrored in both the Retry-After header (seconds, rounded up) and the
// envelope's retry_after_ms field.
const retryAfterMS = 1000

// Error is a refusal: the HTTP status and the envelope detail it is written
// with. Code paths that do not own the ResponseWriter (RunQuery and its
// fetch functions) return one to refuse with a specific status and code.
type Error struct {
	Status int
	Detail wire.ErrorDetail
}

func (e *Error) Error() string { return e.Detail.Message }

// Errorf builds a refusal. A 429 carries the retryAfterMS backoff hint; a
// 413 over_capacity does not, since an oversized request never shrinks on
// retry.
func Errorf(status int, code wire.ErrorCode, format string, args ...any) *Error {
	e := &Error{Status: status, Detail: wire.ErrorDetail{Code: code, Message: fmt.Sprintf(format, args...)}}
	if status == http.StatusTooManyRequests {
		e.Detail.RetryAfterMS = retryAfterMS
	}
	return e
}

// WriteError writes err as the error envelope. An *Error keeps its status
// and detail; any other error is classified by errClass.
func WriteError(w http.ResponseWriter, err error) {
	var e *Error
	if !errors.As(err, &e) {
		status, code := errClass(err)
		e = &Error{Status: status, Detail: wire.ErrorDetail{Code: code, Message: err.Error()}}
	}
	w.Header().Set("Content-Type", "application/json")
	if ms := e.Detail.RetryAfterMS; ms > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((ms+999)/1000, 10))
	}
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(wire.ErrorEnvelope{Error: e.Detail})
}

// fail writes the structured error envelope with the given status and code.
func (s *Server) fail(w http.ResponseWriter, status int, code wire.ErrorCode, format string, args ...any) {
	WriteError(w, Errorf(status, code, format, args...))
}

// badRequest marks a client-side input error (malformed line, arity
// mismatch) so errClass can map it to 400/bad_spec without string matching.
type badRequest struct{ msg string }

func (b badRequest) Error() string { return b.msg }

// badReqf builds a badRequest error.
func badReqf(format string, args ...any) error {
	return badRequest{msg: fmt.Sprintf(format, args...)}
}

// errClass maps evaluation-path errors to (HTTP status, envelope code).
// The mapping is 1:1 with the documented /v1 error surface.
func errClass(err error) (int, wire.ErrorCode) {
	var br badRequest
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest, wire.CodeBadSpec
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, wire.CodeDraining
	case errors.Is(err, errNotWarm):
		return http.StatusConflict, wire.CodeModelCold
	case errors.Is(err, errNotOwner):
		return http.StatusConflict, wire.CodeNotOwner
	case errors.Is(err, errAlreadyRegistered):
		return http.StatusConflict, wire.CodeAlreadyExists
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, wire.CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, wire.CodeDeadlineExceeded
	default:
		return http.StatusInternalServerError, wire.CodeInternal
	}
}

// failErr classifies err and writes its envelope.
func (s *Server) failErr(w http.ResponseWriter, err error, format string, args ...any) {
	status, code := errClass(err)
	s.fail(w, status, code, format, args...)
}

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
// with. Every refusal with a status and code of its own is one, or wraps
// one.
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

// WriteError writes err as the error envelope: the status and code
// errClass gives it, err's text as the message, and the backoff hint of the
// *Error err is or wraps. A prefixed refusal wraps its cause with %w, so it
// keeps the cause's status and code.
func WriteError(w http.ResponseWriter, err error) {
	status, code := errClass(err)
	detail := wire.ErrorDetail{Code: code, Message: err.Error()}
	var e *Error
	if errors.As(err, &e) {
		detail.RetryAfterMS = e.Detail.RetryAfterMS
	}
	w.Header().Set("Content-Type", "application/json")
	if ms := detail.RetryAfterMS; ms > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((ms+999)/1000, 10))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(wire.ErrorEnvelope{Error: detail})
}

// errClass maps an error to (HTTP status, envelope code): an *Error's own,
// else the class of the sentinel it wraps. The mapping is 1:1 with the
// documented /v1 error surface.
func errClass(err error) (int, wire.ErrorCode) {
	var e *Error
	switch {
	case errors.As(err, &e):
		return e.Status, e.Detail.Code
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

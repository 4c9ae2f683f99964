package cluster

// The wire transport: the coordinator's protocol endpoints and the
// matching client. Every message is JSON; typed failures travel as
// {"error","code"} bodies with a matching HTTP status, and the client maps
// codes back onto the package's sentinel errors, so errors.Is behaves
// identically over loopback and the wire.
//
//	POST /cluster/v1/register    RegisterRequest  -> RegisterResponse
//	POST /cluster/v1/heartbeat   HeartbeatRequest -> HeartbeatResponse
//	POST /cluster/v1/lease       LeaseRequest     -> LeaseResponse
//	POST /cluster/v1/complete    CompleteRequest  -> CompleteResponse
//	GET  /cluster/v1/status      coordinator Status snapshot
//	GET  /cluster/v1/trace       TraceExport (spans + flight recorder)
//	GET  /cluster/v1/metrics     federated cluster-wide Prometheus text

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// errorCode names a typed protocol failure on the wire.
type errorCode string

const (
	codeProtocolMismatch  errorCode = "protocol-mismatch"
	codeVersionMismatch   errorCode = "version-mismatch"
	codeUnknownWorker     errorCode = "unknown-worker"
	codeDraining          errorCode = "draining"
	codeUnknownExperiment errorCode = "unknown-experiment"
	codeQueueFull         errorCode = "queue-full"
	codeInternal          errorCode = "internal"
)

// wireError is the JSON error body.
type wireError struct {
	Error string    `json:"error"`
	Code  errorCode `json:"code"`
}

// codeOf maps a coordinator error onto its wire code and HTTP status.
func codeOf(err error) (errorCode, int) {
	switch {
	case errors.Is(err, ErrProtocolMismatch):
		return codeProtocolMismatch, http.StatusUpgradeRequired
	case errors.Is(err, ErrVersionMismatch):
		return codeVersionMismatch, http.StatusConflict
	case errors.Is(err, ErrUnknownWorker):
		return codeUnknownWorker, http.StatusNotFound
	case errors.Is(err, ErrDraining):
		return codeDraining, http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownExperiment):
		return codeUnknownExperiment, http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return codeQueueFull, http.StatusServiceUnavailable
	}
	return codeInternal, http.StatusInternalServerError
}

// sentinelOf inverts codeOf on the client side.
func sentinelOf(code errorCode) error {
	switch code {
	case codeProtocolMismatch:
		return ErrProtocolMismatch
	case codeVersionMismatch:
		return ErrVersionMismatch
	case codeUnknownWorker:
		return ErrUnknownWorker
	case codeDraining:
		return ErrDraining
	case codeUnknownExperiment:
		return ErrUnknownExperiment
	case codeQueueFull:
		return ErrQueueFull
	}
	return nil
}

// NewHTTPHandler exposes c's protocol endpoints. Mount it at the server
// root (the patterns carry the full /cluster/v1/ prefix).
func NewHTTPHandler(c *Coordinator) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/register", func(w http.ResponseWriter, r *http.Request) {
		protoCall(w, r, c.Register)
	})
	mux.HandleFunc("POST /cluster/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		protoCall(w, r, c.Heartbeat)
	})
	mux.HandleFunc("POST /cluster/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		protoCall(w, r, c.Lease)
	})
	mux.HandleFunc("POST /cluster/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		protoCall(w, r, c.Complete)
	})
	mux.HandleFunc("GET /cluster/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeProtoJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("GET /cluster/v1/trace", func(w http.ResponseWriter, r *http.Request) {
		writeProtoJSON(w, http.StatusOK, c.TraceExport())
	})
	mux.HandleFunc("GET /cluster/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.WriteClusterPrometheus(w)
	})
	return mux
}

// protoCall decodes one protocol request, invokes the coordinator, and
// encodes the response or the typed error.
func protoCall[Req, Resp any](w http.ResponseWriter, r *http.Request, fn func(Req) (Resp, error)) {
	var req Req
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeProtoJSON(w, http.StatusBadRequest, wireError{Error: "bad request body: " + err.Error(), Code: codeInternal})
		return
	}
	resp, err := fn(req)
	if err != nil {
		code, status := codeOf(err)
		writeProtoJSON(w, status, wireError{Error: err.Error(), Code: code})
		return
	}
	writeProtoJSON(w, http.StatusOK, resp)
}

func writeProtoJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPClient implements Client over the wire protocol.
type HTTPClient struct {
	// Base is the coordinator's base URL (e.g. "http://coord:8080").
	Base string
	// HTTP is the underlying client (nil means http.DefaultClient).
	HTTP *http.Client
}

func (c *HTTPClient) Register(req RegisterRequest) (RegisterResponse, error) {
	return httpCall[RegisterResponse](c, "/cluster/v1/register", req)
}

func (c *HTTPClient) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	return httpCall[HeartbeatResponse](c, "/cluster/v1/heartbeat", req)
}

func (c *HTTPClient) Lease(req LeaseRequest) (LeaseResponse, error) {
	return httpCall[LeaseResponse](c, "/cluster/v1/lease", req)
}

func (c *HTTPClient) Complete(req CompleteRequest) (CompleteResponse, error) {
	return httpCall[CompleteResponse](c, "/cluster/v1/complete", req)
}

// httpCall POSTs one protocol message and decodes the response, mapping
// wire error codes back onto sentinel errors.
func httpCall[Resp any](c *HTTPClient, path string, req any) (Resp, error) {
	var zero Resp
	body, err := json.Marshal(req)
	if err != nil {
		return zero, err
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	url := strings.TrimSuffix(c.Base, "/") + path
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return zero, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return zero, err
	}
	if resp.StatusCode != http.StatusOK {
		var we wireError
		if json.Unmarshal(raw, &we) == nil && we.Code != "" {
			if sentinel := sentinelOf(we.Code); sentinel != nil {
				return zero, fmt.Errorf("%w (%s)", sentinel, we.Error)
			}
			return zero, fmt.Errorf("cluster: %s: %s", path, we.Error)
		}
		return zero, fmt.Errorf("cluster: %s: HTTP %d", path, resp.StatusCode)
	}
	var out Resp
	if err := json.Unmarshal(raw, &out); err != nil {
		return zero, fmt.Errorf("cluster: %s: bad response: %w", path, err)
	}
	return out, nil
}

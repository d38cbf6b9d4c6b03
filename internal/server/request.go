package server

// The one parse path of an insert or yield request. vabufd's single,
// batch and stream endpoints and its cache lookup, and vabufr's routing
// and batch split, all turn bytes into a request here: a strict decode,
// the batch defaults, then Normalize. The router's partition key is
// therefore the backend's fingerprint, and the two accept and reject
// exactly the same bodies.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Request is a parsed insert or yield request: *InsertRequest or
// *YieldRequest, defaults applied and normalized.
type Request interface {
	Normalize() error
	// Fingerprint is the result-cache key under a cache epoch; vabufr
	// routes by the empty epoch's.
	Fingerprint(epoch string) string
	// insert is the insertion part every kind carries.
	insert() *InsertRequest
	// applyDefaults fills zero fields from d, a request of the same kind.
	applyDefaults(d Request)
	// run executes the prepared request on a pool worker and returns its
	// response body, or the failure's HTTP status.
	run(s *Server, ctx context.Context, p *preparedRun) (any, int, error)
}

// newRequest returns an empty request of kind. It is the only place a
// kind name maps to a request type.
func newRequest(kind string) (Request, error) {
	switch kind {
	case "insert":
		return new(InsertRequest), nil
	case "yield":
		return new(YieldRequest), nil
	}
	return nil, fmt.Errorf("unknown request kind %q (want insert or yield)", kind)
}

// ParseRequest decodes body strictly as a request of kind ("insert" or
// "yield"), fills its zero-valued fields from defaults (a batch's
// shared block as ParseBatch returns it; nil for none) and normalizes
// it. Every error is the client's (400).
func ParseRequest(kind string, defaults Request, body []byte) (Request, error) {
	return parseRequest(kind, defaults, bytes.NewReader(body))
}

// parseRequest is ParseRequest over a reader: vabufd's single endpoints
// decode straight from the request body, without buffering it first.
func parseRequest(kind string, defaults Request, rd io.Reader) (Request, error) {
	req, err := newRequest(kind)
	if err != nil {
		return nil, err
	}
	if err := decodeStrict(rd, req); err != nil {
		return nil, err
	}
	if defaults != nil {
		req.applyDefaults(defaults)
	}
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	return req, nil
}

// ParseBatch decodes the envelope of a batch of kind strictly and
// returns its items raw, for ParseRequest, and its decoded defaults
// block (nil when absent). A malformed envelope or defaults block, or an
// empty item list, fails the whole batch (400); a malformed item fails
// only itself.
func ParseBatch(kind string, body []byte) ([]json.RawMessage, Request, error) {
	var b BatchRequest[json.RawMessage]
	if err := DecodeStrict(body, &b); err != nil {
		return nil, nil, err
	}
	if len(b.Items) == 0 {
		return nil, nil, errors.New(`"items" must contain at least one request`)
	}
	if b.Defaults == nil {
		return b.Items, nil, nil
	}
	d, err := newRequest(kind)
	if err != nil {
		return nil, nil, err
	}
	if err := DecodeStrict(*b.Defaults, d); err != nil {
		return nil, nil, fmt.Errorf("batch defaults: %w", err)
	}
	return b.Items, d, nil
}

// DecodeStrict decodes exactly one JSON document from data into dst,
// rejecting unknown fields and trailing data.
func DecodeStrict(data []byte, dst any) error {
	return decodeStrict(bytes.NewReader(data), dst)
}

// decodeStrict is DecodeStrict over a reader. A read error, such as a
// body over its http.MaxBytesReader limit, stays in the error chain.
func decodeStrict(rd io.Reader, dst any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	switch err := dec.Decode(new(json.RawMessage)); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errors.New("request body has trailing data after the JSON document")
}

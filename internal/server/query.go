package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"haswellep/internal/coherence"
	"haswellep/internal/experiments"
	"haswellep/internal/machine"
	"haswellep/internal/topology"
)

// Query is the wire form of one what-if question. The decoder is strict:
// unknown fields, impossible geometries, and out-of-range workloads all
// produce a structured 400 (*QueryError) — never a panic — which the fuzz
// target FuzzDecodeQuery holds the whole path to.
type Query struct {
	// Kind is "latency", "bandwidth", "placement", or "chaos".
	Kind string `json:"kind"`
	// Mode is the snoop mode: "source", "home", or "cod". Chaos queries
	// may omit it (they run the paper's test system: cod, 2 sockets,
	// 12-core die).
	Mode string `json:"mode,omitempty"`
	// Protocol is "mesif" (default), "mesi", or "moesi".
	Protocol string `json:"protocol,omitempty"`
	// Sockets is 1 or 2 (default 2).
	Sockets int `json:"sockets,omitempty"`
	// Die is the cores-per-die variant: 8 or 12 (default 12).
	Die int `json:"die,omitempty"`
	// FromNode and ToNode are NUMA node indices.
	FromNode int `json:"from_node,omitempty"`
	ToNode   int `json:"to_node,omitempty"`
	// SizeBytes is the working-set size (default 16 MiB).
	SizeBytes int64 `json:"size_bytes,omitempty"`
	// Cores is the concurrent reader count for bandwidth queries.
	Cores int `json:"cores,omitempty"`
	// Seed and Rate select a chaos query's fault plan.
	Seed int64   `json:"seed,omitempty"`
	Rate float64 `json:"rate,omitempty"`
	// Label optionally partitions the memo key ([A-Za-z0-9._-], ≤32).
	Label string `json:"label,omitempty"`
}

// Request is the POST /v1/whatif envelope: a batch of queries plus an
// optional client deadline for the whole batch.
type Request struct {
	Queries []Query `json:"queries"`
	// DeadlineMS bounds the batch: points still unfinished when it
	// expires come back degraded instead of blocking the client. 0 means
	// no client deadline (the server's per-point deadline still applies).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// QueryError is a structured decode/validation failure; the server renders
// it as the 400 response body.
type QueryError struct {
	// Index is the offending query's position in the batch, or -1 when
	// the envelope itself is malformed.
	Index  int    `json:"query_index"`
	Detail string `json:"error"`
}

func (e *QueryError) Error() string {
	if e.Index < 0 {
		return e.Detail
	}
	return fmt.Sprintf("query %d: %s", e.Index, e.Detail)
}

// envelopeErr wraps an envelope-level failure.
func envelopeErr(format string, args ...any) *QueryError {
	return &QueryError{Index: -1, Detail: fmt.Sprintf(format, args...)}
}

// Spec converts one wire query into its canonical what-if spec, applying
// wire-level defaults (die 12) before the kind-level canonicalization.
func (q Query) Spec() (experiments.WhatIfSpec, error) {
	var zero experiments.WhatIfSpec
	s := experiments.WhatIfSpec{
		Kind:      experiments.WhatIfKind(q.Kind),
		Sockets:   q.Sockets,
		From:      q.FromNode,
		To:        q.ToNode,
		SizeBytes: q.SizeBytes,
		Cores:     q.Cores,
		Seed:      q.Seed,
		Rate:      q.Rate,
		Label:     q.Label,
	}
	if _, err := coherence.Get(coherence.ID(q.Protocol)); err != nil {
		return zero, err
	}
	s.Protocol = coherence.ID(q.Protocol)
	switch q.Die {
	case 0, 12:
		s.Die = topology.Die12
	case 8:
		s.Die = topology.Die8
	default:
		return zero, fmt.Errorf("unknown die variant %d (choose 8 or 12)", q.Die)
	}
	if q.Mode != "" {
		m, err := machine.ParseSnoopMode(q.Mode)
		if err != nil {
			return zero, err
		}
		s.Mode = m
	} else if s.Kind != experiments.WhatIfChaos {
		return zero, errors.New("mode is required (source, home, or cod)")
	}
	return s.Canonical()
}

// DecodeBatch reads and validates one request body. limit bounds the body
// size and maxBatch the query count; both defend the bounded-queue promise
// (a request may not smuggle in unbounded work). Every returned spec is
// canonical and validated.
func DecodeBatch(r io.Reader, limit int64, maxBatch int) ([]experiments.WhatIfSpec, Request, *QueryError) {
	var req Request
	dec := json.NewDecoder(io.LimitReader(r, limit+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, req, envelopeErr("decoding request: %v (body limit %d bytes)", err, limit)
	}
	// A second value means trailing garbage (or a body past the limit cut
	// mid-token, which the first Decode already caught).
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, req, envelopeErr("trailing data after the request object")
	}
	if len(req.Queries) == 0 {
		return nil, req, envelopeErr("empty batch: provide at least one query")
	}
	if len(req.Queries) > maxBatch {
		return nil, req, envelopeErr("batch of %d queries exceeds the %d-query limit", len(req.Queries), maxBatch)
	}
	if req.DeadlineMS < 0 {
		return nil, req, envelopeErr("deadline_ms must be non-negative")
	}
	specs := make([]experiments.WhatIfSpec, len(req.Queries))
	for i, q := range req.Queries {
		s, err := q.Spec()
		if err != nil {
			return nil, req, &QueryError{Index: i, Detail: err.Error()}
		}
		specs[i] = s
	}
	return specs, req, nil
}

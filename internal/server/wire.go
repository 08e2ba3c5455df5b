package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/densitymountain/edmstream"
)

// wirePoint is the JSON form of one stream point. Exactly one of
// vector/tokens must be present. Omitted time means "stamp with the
// server's stream clock at decode" (seconds since the server
// started); explicit times let a single writer replay a recorded
// stream deterministically. id and label are optional and preserved
// verbatim (the engine uses them only for error messages and
// evaluation).
type wirePoint struct {
	ID     *int64    `json:"id,omitempty"`
	Vector []float64 `json:"vector,omitempty"`
	Tokens []string  `json:"tokens,omitempty"`
	Time   *float64  `json:"time,omitempty"`
	Label  *int      `json:"label,omitempty"`
}

// toPoint converts a wire point, stamping omitted fields. now is the
// server's stream clock reading for this request.
func (w wirePoint) toPoint(now float64) edmstream.Point {
	p := edmstream.Point{Label: edmstream.NoLabel, Time: now}
	if w.ID != nil {
		p.ID = *w.ID
	}
	if w.Time != nil {
		p.Time = *w.Time
	}
	if w.Label != nil {
		p.Label = *w.Label
	}
	if w.Tokens != nil {
		p.Tokens = edmstream.NewTokenSet(w.Tokens...)
	} else {
		p.Vector = w.Vector
	}
	return p
}

// decodePoints reads an ingest or assign request body: either a JSON
// array of point objects or NDJSON (one point object per line; any
// whitespace separation works). Each decoded point is validated so a
// malformed request is rejected before it can poison a coalesced
// batch shared with other requests. maxPoints bounds the decoded
// count (0 = unbounded).
func decodePoints(r io.Reader, now float64, maxPoints int) ([]edmstream.Point, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()

	tok, err := dec.Token()
	if errors.Is(err, io.EOF) {
		return nil, errors.New("empty request body")
	}
	if err != nil {
		return nil, err
	}

	var pts []edmstream.Point
	add := func(w wirePoint) error {
		if w.Vector != nil && w.Tokens != nil {
			// toPoint prefers tokens, so catch the conflict here where
			// both halves are still visible.
			return fmt.Errorf("point %d: has both vector and tokens", len(pts))
		}
		if w.Tokens == nil && len(w.Vector) == 0 {
			return fmt.Errorf("point %d: vector must have at least one coordinate", len(pts))
		}
		p := w.toPoint(now)
		if err := p.Validate(); err != nil {
			return fmt.Errorf("point %d: %w", len(pts), err)
		}
		if maxPoints > 0 && len(pts) >= maxPoints {
			return fmt.Errorf("too many points in one request (max %d)", maxPoints)
		}
		pts = append(pts, p)
		return nil
	}

	if delim, ok := tok.(json.Delim); ok && delim == '[' {
		// JSON array body.
		for dec.More() {
			var w wirePoint
			if err := dec.Decode(&w); err != nil {
				return nil, fmt.Errorf("point %d: %w", len(pts), err)
			}
			if err := add(w); err != nil {
				return nil, err
			}
		}
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
		// Only whitespace may follow the array: a second array or
		// stray bytes would otherwise be dropped while the ack reports
		// the request accepted.
		if _, err := dec.Token(); !errors.Is(err, io.EOF) {
			return nil, errors.New("unexpected data after the JSON array")
		}
		return pts, nil
	}

	if delim, ok := tok.(json.Delim); ok && delim == '{' {
		// NDJSON (or a single bare object). The first object's opening
		// brace is already consumed, so rebuild it from the token
		// stream, then continue decoding whole objects.
		var first wirePoint
		if err := decodeOpenObject(dec, &first); err != nil {
			return nil, fmt.Errorf("point 0: %w", err)
		}
		if err := add(first); err != nil {
			return nil, err
		}
		for {
			var w wirePoint
			if err := dec.Decode(&w); errors.Is(err, io.EOF) {
				return pts, nil
			} else if err != nil {
				return nil, fmt.Errorf("point %d: %w", len(pts), err)
			}
			if err := add(w); err != nil {
				return nil, err
			}
		}
	}

	return nil, fmt.Errorf("request body must be a JSON array of points or NDJSON, got %v", tok)
}

// decodeOpenObject decodes the remainder of an object whose opening
// '{' token has already been consumed from dec.
func decodeOpenObject(dec *json.Decoder, w *wirePoint) error {
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return err
		}
		key, _ := keyTok.(string)
		switch key {
		case "id":
			w.ID = new(int64)
			err = dec.Decode(w.ID)
		case "vector":
			err = dec.Decode(&w.Vector)
		case "tokens":
			err = dec.Decode(&w.Tokens)
		case "time":
			w.Time = new(float64)
			err = dec.Decode(w.Time)
		case "label":
			w.Label = new(int)
			err = dec.Decode(w.Label)
		default:
			return fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return err
		}
	}
	_, err := dec.Token() // closing '}'
	return err
}

// pointShape encodes a point's modality and dimensionality as one
// comparable value: -1 for token sets, the vector dimensionality
// otherwise (always > 0; zero-dimension vectors are rejected at
// decode). The engine's stream is homogeneous — one modality, one
// dimensionality, fixed by the first point — so the server checks
// every decoded point against the established shape instead of
// letting a mismatch reach the distance kernels (which would panic on
// a shorter vector or silently truncate a longer one).
func pointShape(p edmstream.Point) int64 {
	if p.IsText() {
		return -1
	}
	return int64(p.Dim())
}

// shapeString renders a shape for error messages.
func shapeString(shape int64) string {
	if shape == -1 {
		return "token-set"
	}
	return fmt.Sprintf("%d-dimensional vector", shape)
}

// wireEvent is the JSON form of one evolution event.
type wireEvent struct {
	Kind    string  `json:"kind"`
	Time    float64 `json:"time"`
	Sources []int   `json:"sources,omitempty"`
	Targets []int   `json:"targets,omitempty"`
}

func toWireEvents(evs []edmstream.Event) []wireEvent {
	out := make([]wireEvent, len(evs))
	for i, e := range evs {
		out[i] = wireEvent{Kind: string(e.Kind), Time: e.Time, Sources: e.Sources, Targets: e.Targets}
	}
	return out
}

// ingestResponse acknowledges one ingest request: the number of
// points committed and, aligned with the request's points, the ID of
// the cluster-cell each point landed in.
type ingestResponse struct {
	Accepted int     `json:"accepted"`
	Cells    []int64 `json:"cells"`
}

// assignResponse carries one cluster ID per request point; -1 marks
// an outlier (or no published snapshot yet). For a single-object
// request the clusters array still has exactly one entry.
type assignResponse struct {
	Clusters []int `json:"clusters"`
}

// wireClusterSummary is one cluster in the snapshot listing.
type wireClusterSummary struct {
	ID          int     `json:"id"`
	PeakCellID  int64   `json:"peak_cell_id"`
	PeakDensity float64 `json:"peak_density"`
	Cells       int     `json:"cells"`
	Weight      float64 `json:"weight"`
	Points      int64   `json:"points"`
}

// snapshotResponse is the GET /v1/snapshot body: the published
// clustering without per-cell payloads (GET /v1/clusters/{id} has
// those).
type snapshotResponse struct {
	Time         float64              `json:"time"`
	Tau          float64              `json:"tau"`
	ActiveCells  int                  `json:"active_cells"`
	OutlierCells int                  `json:"outlier_cells"`
	Clusters     []wireClusterSummary `json:"clusters"`
}

// wireSeed is one member cell of a cluster detail response.
type wireSeed struct {
	CellID int64     `json:"cell_id"`
	Vector []float64 `json:"vector,omitempty"`
	Tokens []string  `json:"tokens,omitempty"`
}

// clusterResponse is the GET /v1/clusters/{id} body.
type clusterResponse struct {
	wireClusterSummary
	Members []wireSeed `json:"members"`
}

// eventsResponse is the GET /v1/events body. Cursor is the next
// cursor to poll with; it only advances when new events are recorded.
type eventsResponse struct {
	Cursor uint64      `json:"cursor"`
	Events []wireEvent `json:"events"`
}

// errorResponse is the uniform error body. Shed responses (429/503)
// additionally carry a machine-readable reason ("overloaded",
// "degraded", "draining") and mirror the Retry-After header so
// body-only clients see the hint too.
type errorResponse struct {
	Error             string `json:"error"`
	Reason            string `json:"reason,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

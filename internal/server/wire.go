package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/densitymountain/edmstream"
)

// maxBodyPresize caps the buffer readBody reserves from a request's
// Content-Length, so a header that overstates the body cannot reserve
// up to MaxBodyBytes before a byte arrives.
const maxBodyPresize = 1 << 20

// readBody reads r to EOF in one pass. size is the expected length (a
// request's Content-Length, negative when unknown): the buffer is
// presized from it, capped at maxBodyPresize, with one spare byte so
// the read that reports EOF needs no growth, and doubles whenever the
// body outgrows it. The buffer is the caller's; nothing is kept.
func readBody(r io.Reader, size int64) ([]byte, error) {
	n := 512
	if size >= 0 {
		n = int(min(size, maxBodyPresize)) + 1
	}
	buf := make([]byte, 0, n)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// parsePoints parses an ingest or assign request body: either a JSON
// array of point objects (only whitespace may follow it) or NDJSON,
// point objects one after another with any or no whitespace between
// them. A point object is {"vector":[...]} or {"tokens":[...]} with
// optional "id", "time" and "label". It accepts exactly what
// encoding/json accepts when decoding each object into
//
//	struct {
//		ID     *int64    `json:"id"`
//		Vector []float64 `json:"vector"`
//		Tokens []string  `json:"tokens"`
//		Time   *float64  `json:"time"`
//		Label  *int      `json:"label"`
//	}
//
// with unknown fields disallowed, and yields the same values: keys
// match case-insensitively, null leaves a field absent, a repeated key
// overwrites the earlier one, and strings decode with the same escape,
// surrogate and invalid-UTF-8 rules. An absent time is stamped with
// now, the server's stream clock for the request; an absent label is
// NoLabel.
//
// Each point is validated as it is parsed, so a malformed request is
// rejected before it can poison a coalesced batch shared with other
// requests. maxPoints bounds the point count (0 = unbounded). Every
// vector is its own exact-size allocation: no point aliases body.
func parsePoints(body []byte, now float64, maxPoints int) ([]edmstream.Point, error) {
	p := pointParser{buf: body, now: now, maxPoints: maxPoints}
	p.skipSpace()
	if p.off == len(p.buf) {
		return nil, errors.New("empty request body")
	}
	// Every point object opens with '{', so their count bounds the
	// point count; braces inside strings only overestimate it.
	hint := min(bytes.Count(body, []byte{'{'}), maxPointsPresize)
	if maxPoints > 0 {
		hint = min(hint, maxPoints)
	}
	p.pts = make([]edmstream.Point, 0, hint)

	switch p.buf[p.off] {
	case '[':
		p.off++
		p.skipSpace()
		if p.peek() == ']' {
			p.off++
		} else {
			for more := true; more; {
				p.skipSpace()
				if err := p.point(); err != nil {
					return nil, err
				}
				p.skipSpace()
				var err error
				if more, err = p.next(']'); err != nil {
					return nil, fmt.Errorf("point %d: %w", len(p.pts), err)
				}
			}
		}
		p.skipSpace()
		if p.off != len(p.buf) {
			// A second array or stray bytes would otherwise be dropped
			// while the ack reports the request accepted.
			return nil, errors.New("unexpected data after the JSON array")
		}
	case '{':
		for p.off < len(p.buf) {
			if err := p.point(); err != nil {
				return nil, err
			}
			p.skipSpace()
		}
	default:
		return nil, fmt.Errorf("request body must be a JSON array of points or NDJSON, got %q", p.buf[p.off])
	}
	return p.pts, nil
}

// maxPointsPresize caps parsePoints' up-front reservation for the
// point slice when the request sets no smaller bound.
const maxPointsPresize = 4096

// pointParser is the state of one parsePoints call.
type pointParser struct {
	buf       []byte
	off       int
	now       float64
	maxPoints int
	pts       []edmstream.Point

	// Scratch reused across the body's objects. vec and toks hold the
	// current object's vector and tokens; their lengths are the
	// high-water marks encoding/json's reused slice would retain for a
	// repeated key (see floats).
	vec  []float64
	toks []string
	str  []byte // unescaped string bytes
}

// point parses one point object (or null, which is a point with no
// fields), validates it and appends it.
func (p *pointParser) point() error {
	i := len(p.pts)
	pt, err := p.object()
	if err != nil {
		return fmt.Errorf("point %d: %w", i, err)
	}
	if err := pt.Validate(); err != nil {
		return fmt.Errorf("point %d: %w", i, err)
	}
	if p.maxPoints > 0 && i >= p.maxPoints {
		return fmt.Errorf("too many points in one request (max %d)", p.maxPoints)
	}
	p.pts = append(p.pts, pt)
	return nil
}

// The fields of a point object, in the order fieldNames lists them.
const (
	fieldID = iota
	fieldVector
	fieldTokens
	fieldTime
	fieldLabel
)

var fieldNames = [...]string{"id", "vector", "tokens", "time", "label"}

// object parses a point object or null into a point stamped with the
// request's defaults.
func (p *pointParser) object() (edmstream.Point, error) {
	pt := edmstream.Point{Label: edmstream.NoLabel, Time: p.now}
	var (
		vecSet, tokSet bool // the field is present and not null
		nvec, ntok     int
	)
	p.vec, p.toks = p.vec[:0], p.toks[:0]

	switch p.peek() {
	case 'n':
		if err := p.null(); err != nil {
			return pt, err
		}
	case '{':
		p.off++
		p.skipSpace()
		if p.peek() == '}' {
			p.off++
			break
		}
		for more := true; more; {
			p.skipSpace()
			f, err := p.key()
			if err != nil {
				return pt, err
			}
			p.skipSpace()
			if p.peek() != ':' {
				return pt, p.unexpected("':'")
			}
			p.off++
			p.skipSpace()
			var set bool
			switch f {
			case fieldID:
				pt.ID, _, err = p.integer(64) // null gives 0, the absent id
			case fieldLabel:
				var v int64
				v, set, err = p.integer(strconv.IntSize)
				pt.Label = edmstream.NoLabel
				if set {
					pt.Label = int(v)
				}
			case fieldTime:
				if pt.Time, set, err = p.float(); !set {
					pt.Time = p.now
				}
			case fieldVector:
				nvec, vecSet, err = p.floats()
			case fieldTokens:
				ntok, tokSet, err = p.strings()
			}
			if err != nil {
				return pt, fmt.Errorf("field %q: %w", fieldNames[f], err)
			}
			p.skipSpace()
			if more, err = p.next('}'); err != nil {
				return pt, err
			}
		}
	default:
		return pt, p.unexpected("a point object")
	}

	if vecSet && tokSet {
		return pt, errors.New("has both vector and tokens")
	}
	if tokSet {
		pt.Tokens = edmstream.NewTokenSet(p.toks[:ntok]...)
		return pt, nil
	}
	if nvec == 0 {
		return pt, errors.New("vector must have at least one coordinate")
	}
	pt.Vector = make([]float64, nvec)
	copy(pt.Vector, p.vec)
	return pt, nil
}

// key parses an object key and names the point field it matches: the
// field whose name it equals, else the one it equals under
// encoding/json's case folding (no two field names fold alike).
func (p *pointParser) key() (int, error) {
	if p.peek() != '"' {
		return 0, p.unexpected("a field name")
	}
	raw, plain, err := p.quoted()
	if err != nil {
		return 0, err
	}
	if !plain {
		p.str = appendUnquoted(p.str[:0], raw)
		raw = p.str
	}
	for f, name := range fieldNames {
		if string(raw) == name {
			return f, nil
		}
	}
	for f, name := range fieldNames {
		if foldedEqual(raw, name) {
			return f, nil
		}
	}
	return 0, fmt.Errorf("unknown field %q", raw)
}

// array consumes the start of an array value, or null. It reports
// whether the value is an array.
func (p *pointParser) array() (bool, error) {
	switch p.peek() {
	case '[':
		p.off++
		return true, nil
	case 'n':
		return false, p.null()
	}
	return false, p.unexpected("an array or null")
}

// floats parses a number array into p.vec and returns its length, or
// consumes null (set is false). encoding/json decodes a repeated key
// into the slice it already holds: a null element leaves the value a
// previous array put at that index, or 0 past every earlier array.
// p.vec keeps those values until a null or empty array replaces the
// slice.
func (p *pointParser) floats() (n int, set bool, err error) {
	if set, err = p.array(); !set || err != nil {
		p.vec = p.vec[:0]
		return 0, set, err
	}
	p.skipSpace()
	if p.peek() == ']' {
		p.off++
		p.vec = p.vec[:0]
		return 0, true, nil
	}
	for ; ; n++ {
		p.skipSpace()
		if n == len(p.vec) {
			p.vec = append(p.vec, 0)
		}
		v, num, err := p.float()
		if err != nil {
			return 0, true, err
		}
		if num {
			p.vec[n] = v
		}
		p.skipSpace()
		if more, err := p.next(']'); err != nil || !more {
			return n + 1, true, err
		}
	}
}

// strings parses a string array into p.toks, or consumes null, with
// the same repeated-key rule as floats.
func (p *pointParser) strings() (n int, set bool, err error) {
	if set, err = p.array(); !set || err != nil {
		p.toks = p.toks[:0]
		return 0, set, err
	}
	p.skipSpace()
	if p.peek() == ']' {
		p.off++
		p.toks = p.toks[:0]
		return 0, true, nil
	}
	for ; ; n++ {
		p.skipSpace()
		if n == len(p.toks) {
			p.toks = append(p.toks, "")
		}
		switch p.peek() {
		case 'n':
			if err := p.null(); err != nil {
				return 0, true, err
			}
		case '"':
			raw, plain, err := p.quoted()
			if err != nil {
				return 0, true, err
			}
			if plain {
				p.toks[n] = string(raw)
			} else {
				p.str = appendUnquoted(p.str[:0], raw)
				p.toks[n] = string(p.str)
			}
		default:
			return 0, true, p.unexpected("a string or null")
		}
		p.skipSpace()
		if more, err := p.next(']'); err != nil || !more {
			return n + 1, true, err
		}
	}
}

// float parses a number or null; set is false for null.
func (p *pointParser) float() (v float64, set bool, err error) {
	lit, err := p.number()
	if lit == nil || err != nil {
		return 0, false, err
	}
	v, err = strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, false, fmt.Errorf("number %s does not fit a float64", lit)
	}
	return v, true, nil
}

// integer parses a number or null as a bits-wide signed integer; set
// is false for null. Like encoding/json, a fraction or exponent is an
// error even when the value is whole.
func (p *pointParser) integer(bits int) (v int64, set bool, err error) {
	lit, err := p.number()
	if lit == nil || err != nil {
		return 0, false, err
	}
	v, err = strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return 0, false, fmt.Errorf("number %s is not an int%d", lit, bits)
	}
	return v, true, nil
}

// number consumes a JSON number and returns its literal, or consumes
// null and returns nil.
func (p *pointParser) number() ([]byte, error) {
	if p.peek() == 'n' {
		return nil, p.null()
	}
	start, i := p.off, p.off
	if i < len(p.buf) && p.buf[i] == '-' {
		i++
	}
	switch {
	case i < len(p.buf) && p.buf[i] == '0':
		i++
	case i < len(p.buf) && '1' <= p.buf[i] && p.buf[i] <= '9':
		i = p.digits(i)
	default:
		p.off = i
		return nil, p.unexpected("a number or null")
	}
	if i < len(p.buf) && p.buf[i] == '.' {
		i++
		j := p.digits(i)
		if j == i {
			p.off = i
			return nil, p.unexpected("a digit after the decimal point")
		}
		i = j
	}
	if i < len(p.buf) && (p.buf[i] == 'e' || p.buf[i] == 'E') {
		i++
		if i < len(p.buf) && (p.buf[i] == '+' || p.buf[i] == '-') {
			i++
		}
		j := p.digits(i)
		if j == i {
			p.off = i
			return nil, p.unexpected("a digit in the exponent")
		}
		i = j
	}
	p.off = i
	return p.buf[start:i], nil
}

// digits returns the index past the run of decimal digits at i.
func (p *pointParser) digits(i int) int {
	for i < len(p.buf) && '0' <= p.buf[i] && p.buf[i] <= '9' {
		i++
	}
	return i
}

// quoted consumes a string, validating it as encoding/json's scanner
// does, and returns its raw contents between the quotes. plain
// reports that they are ASCII with no escapes, so raw is already the
// decoded value.
func (p *pointParser) quoted() (raw []byte, plain bool, err error) {
	start := p.off + 1
	plain = true
	for i := start; i < len(p.buf); {
		switch c := p.buf[i]; {
		case c == '"':
			p.off = i + 1
			return p.buf[start:i], plain, nil
		case c == '\\':
			plain = false
			switch p.peekAt(i + 1) {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
				continue
			case 'u':
				if i+6 <= len(p.buf) && hex4(p.buf[i+2:i+6]) >= 0 {
					i += 6
					continue
				}
			}
			p.off = i + 1
			return nil, false, p.unexpected("a valid escape")
		case c < ' ':
			p.off = i
			return nil, false, p.unexpected("a string character")
		case c >= utf8.RuneSelf:
			plain = false
		}
		i++
	}
	p.off = len(p.buf)
	return nil, false, p.unexpected("the end of the string")
}

// null consumes the literal null.
func (p *pointParser) null() error {
	for i := 0; i < len("null"); i++ {
		if p.peek() != "null"[i] {
			return p.unexpected("null")
		}
		p.off++
	}
	return nil
}

// next consumes the ',' that separates two elements (more is true) or
// the delimiter end that closes the array or object.
func (p *pointParser) next(end byte) (more bool, err error) {
	switch p.peek() {
	case ',':
		p.off++
		return true, nil
	case end:
		p.off++
		return false, nil
	}
	return false, p.unexpected(fmt.Sprintf("',' or '%c'", end))
}

// peek returns the next byte, or 0 at the end of the body.
func (p *pointParser) peek() byte { return p.peekAt(p.off) }

// peekAt returns the byte at i, or 0 past the end of the body.
func (p *pointParser) peekAt(i int) byte {
	if i >= len(p.buf) {
		return 0
	}
	return p.buf[i]
}

// skipSpace skips the four whitespace bytes JSON allows.
func (p *pointParser) skipSpace() {
	for p.off < len(p.buf) {
		switch p.buf[p.off] {
		case ' ', '\t', '\n', '\r':
			p.off++
		default:
			return
		}
	}
}

// unexpected reports the byte at the parser's offset where want was
// expected.
func (p *pointParser) unexpected(want string) error {
	if p.off == len(p.buf) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", p.buf[p.off], p.off, want)
}

// appendUnquoted appends the value of a validated JSON string's raw
// contents to dst, decoding as encoding/json does: a \u escape of a
// surrogate that does not pair with the next \u escape becomes U+FFFD
// (and the next escape stands alone), and each byte of invalid UTF-8
// becomes U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'u':
				rr := hex4(s[r+2 : r+6])
				r += 6
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						rr1 = hex4(s[r+2 : r+6])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						r += 6
						dst = utf8.AppendRune(dst, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
			default:
				dst = append(dst, unescaped[e])
				r += 2
			}
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// unescaped maps the byte after a backslash to the byte it stands for.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// foldedEqual reports whether key equals the lower-case ASCII name
// under encoding/json's case folding: ASCII letters fold to upper
// case, and any other rune to the smallest rune of its Unicode fold
// set (so the Kelvin sign U+212A matches "k").
func foldedEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		var r rune
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			r = rune(c)
			i++
		} else {
			rr, n := utf8.DecodeRune(key[i:])
			r = foldRune(rr)
			i += n
		}
		if j == len(name) || r != rune(name[j]-('a'-'A')) {
			return false
		}
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's Unicode fold set.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
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

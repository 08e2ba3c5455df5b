package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Shared HTTP retry/backoff for the drills' clients. The retry
// contract is deliberately narrow: only clean shed responses — 429/503,
// where the server definitively committed nothing — are retried,
// honoring the Retry-After hint when present. Transport errors are
// returned immediately: a lost response leaves the commit ambiguous,
// and the drills' exact acked-points accounting cannot tolerate a
// blind replay that might duplicate a batch.

// shedReply is a parsed 429/503 rejection: the machine-readable
// reason and retry hint the server attaches to every shed.
type shedReply struct {
	Status            int
	Reason            string
	RetryAfterSeconds int
}

// parseShed classifies one response, returning nil for anything that
// is not a shed status. The hint is read from the Retry-After header
// with the JSON body's retry_after_seconds as fallback.
func parseShed(status int, header http.Header, body []byte) *shedReply {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return nil
	}
	s := &shedReply{Status: status}
	if ra, err := strconv.Atoi(header.Get("Retry-After")); err == nil {
		s.RetryAfterSeconds = ra
	}
	var payload struct {
		Reason            string `json:"reason"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if json.Unmarshal(body, &payload) == nil {
		s.Reason = payload.Reason
		if s.RetryAfterSeconds == 0 {
			s.RetryAfterSeconds = payload.RetryAfterSeconds
		}
	}
	return s
}

// backoffDelay is the jittered exponential backoff every bench client
// shares: base doubled per attempt, capped at max, jittered into
// [d/2, d] so synchronized clients decorrelate. A nil rng falls back
// to the goroutine-safe global source.
func backoffDelay(attempt int, base, max time.Duration, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if d <= 0 {
		return 0
	}
	jitter := int64(d/2) + 1
	if rng != nil {
		return d/2 + time.Duration(rng.Int63n(jitter))
	}
	return d/2 + time.Duration(rand.Int63n(jitter))
}

// roundTrip issues one request — a POST of the pre-rendered JSON body,
// or a GET when body is nil — and drains the response, returning
// status, headers and body.
func roundTrip(client *http.Client, url string, body []byte) (int, http.Header, []byte, error) {
	method, rd := "GET", io.Reader(nil)
	if body != nil {
		method, rd = "POST", bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, raw, nil
}

// retryPolicy is a shed-retry budget: attempts in all, with the shared
// backoff between them.
type retryPolicy struct {
	attempts  int
	base, max time.Duration
	rng       *rand.Rand
}

// stdRetry is the policy every drill client uses outside the overload
// drill's calibration phase.
var stdRetry = retryPolicy{attempts: 8, base: 10 * time.Millisecond, max: time.Second}

// shedRetry issues the request (see roundTrip) until a 200, retrying
// shed responses with the policy's backoff — preferring the server's
// Retry-After hint when it is under the cap — and failing at once on
// a transport error or any other status. Returns the 200 body.
func shedRetry(client *http.Client, url string, body []byte, p retryPolicy) ([]byte, error) {
	var last *shedReply
	for attempt := 0; attempt < p.attempts; attempt++ {
		if attempt > 0 {
			delay := backoffDelay(attempt, p.base, p.max, p.rng)
			if hint := time.Duration(last.RetryAfterSeconds) * time.Second; hint > delay && hint <= p.max {
				delay = hint
			}
			time.Sleep(delay)
		}
		status, header, raw, err := roundTrip(client, url, body)
		if err != nil {
			return nil, err
		}
		if status == http.StatusOK {
			return raw, nil
		}
		if last = parseShed(status, header, raw); last == nil {
			return nil, fmt.Errorf("bench: %s status %d: %s", url, status, raw)
		}
	}
	return nil, fmt.Errorf("bench: %s still shed after %d attempts (last: %d %s)", url, p.attempts, last.Status, last.Reason)
}

// waitUntil polls cond every interval until it reports done, the
// condition errors, or the timeout passes.
func waitUntil(timeout, every time.Duration, what string, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		done, err := cond()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(every)
	}
}

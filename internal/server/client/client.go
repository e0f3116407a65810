// Package client is the Go client for the streammapd compile server. The
// response body is the artifact encoding itself, so Compile returns a
// fully validated *artifact.Artifact — the same object a local
// Compiled.Artifact() produces.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"streammap/internal/artifact"
	"streammap/internal/obs"
	"streammap/internal/server"
)

// Throttled is the typed form of a 429 response: the server shed this
// request under load and suggests retrying after RetryAfter.
type Throttled struct {
	RetryAfter time.Duration
	Message    string
}

func (e *Throttled) Error() string {
	return fmt.Sprintf("server throttled the request (retry after %s): %s", e.RetryAfter, e.Message)
}

// IsThrottled reports whether err is a 429 from the server, returning the
// backoff hint when it is.
func IsThrottled(err error) (time.Duration, bool) {
	var t *Throttled
	if errors.As(err, &t) {
		return t.RetryAfter, true
	}
	return 0, false
}

// StatusError is any other non-200 response.
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server answered %d: %s", e.Status, e.Message)
}

// Config tunes optional client behaviors. The zero value preserves the
// original single-shot semantics: no retries, redirects surfaced as
// *StatusError.
type Config struct {
	// Retry429 retries a throttled request exactly once, after sleeping a
	// decorrelated-jitter backoff: uniform in [RetryAfter, 3*RetryAfter),
	// where RetryAfter is the server's own hint. The floor honors the
	// server's ask; the jitter de-synchronizes a herd of clients that were
	// all shed at the same instant, so their retries don't arrive as the
	// same stampede that got them shed.
	Retry429 bool
	// FollowRedirect follows exactly one 307/308 answer (a fleet node in
	// redirect mode pointing at the key's owner) by re-issuing the request
	// at the Location. One hop is the contract: the owner computed from
	// any node's ring is final, so a second redirect means fleet
	// misconfiguration, which should surface, not loop.
	FollowRedirect bool
}

// Client talks to one compile server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8372".
	BaseURL string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// Config opts into retry and redirect behaviors.
	Config Config
	// Sleep is the backoff sleep (test seam; time.Sleep when nil).
	Sleep func(time.Duration)
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// noFollowClient is the transport with automatic redirects disabled:
// net/http would happily re-POST through up to 10 hops of 307s (the
// request's GetBody is set), which hides fleet routing from the caller
// and ignores the one-hop contract. Redirects are followed manually in
// postArtifact, only when configured, only once.
func (c *Client) noFollowClient() *http.Client {
	hc := *c.httpClient()
	hc.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	return &hc
}

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// backoff draws the decorrelated-jitter sleep for one 429 retry.
func backoff(retryAfter time.Duration) time.Duration {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	return retryAfter + time.Duration(rand.Int63n(int64(2*retryAfter)))
}

// Compile posts one compile request and decodes the artifact response.
// A 429 returns *Throttled; other failures return *StatusError or a
// transport error.
func (c *Client) Compile(ctx context.Context, req server.CompileRequest) (*artifact.Artifact, error) {
	return c.postArtifact(ctx, "/v1/compile", req)
}

// Remap posts one remap request — an artifact plus the degradation that
// hit its machine — and decodes the re-targeted artifact. Errors surface
// exactly as for Compile.
func (c *Client) Remap(ctx context.Context, req server.RemapRequest) (*artifact.Artifact, error) {
	return c.postArtifact(ctx, "/v1/remap", req)
}

// postArtifact posts one JSON request to an artifact-answering route,
// applying the configured one-hop redirect follow and single 429 retry.
func (c *Client) postArtifact(ctx context.Context, path string, req any) (*artifact.Artifact, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	target := c.BaseURL + path
	status, header, body, err := c.post(ctx, target, payload)
	if err != nil {
		return nil, err
	}

	if c.Config.FollowRedirect && (status == http.StatusTemporaryRedirect || status == http.StatusPermanentRedirect) {
		loc := resolveLocation(target, header.Get("Location"))
		if loc == "" {
			return nil, &StatusError{Status: status, Message: "redirect without Location"}
		}
		target = loc
		if status, header, body, err = c.post(ctx, target, payload); err != nil {
			return nil, err
		}
	}

	if c.Config.Retry429 && status == http.StatusTooManyRequests {
		c.sleep(backoff(retryAfterHint(header)))
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if status, header, body, err = c.post(ctx, target, payload); err != nil {
			return nil, err
		}
	}

	switch status {
	case http.StatusOK:
		return artifact.Decode(body)
	case http.StatusTooManyRequests:
		return nil, &Throttled{RetryAfter: retryAfterHint(header), Message: trim(body)}
	default:
		return nil, &StatusError{Status: status, Message: trim(body)}
	}
}

// post issues one POST and reads the full response, redirects unfollowed.
func (c *Client) post(ctx context.Context, url string, payload []byte) (int, http.Header, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if hv := obs.HeaderValue(ctx); hv != "" {
		// A caller already inside a trace (an instrumented tool, a test)
		// propagates it; the server adopts the ID instead of minting one.
		hreq.Header.Set(obs.TraceHeader, hv)
	}
	resp, err := c.noFollowClient().Do(hreq)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, body, nil
}

// retryAfterHint parses the server's Retry-After (1s when absent/garbled).
func retryAfterHint(h http.Header) time.Duration {
	if secs, err := strconv.Atoi(h.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}

// resolveLocation resolves a (possibly relative) Location header against
// the URL that answered with it. "" means unresolvable.
func resolveLocation(from, loc string) string {
	if loc == "" {
		return ""
	}
	u, err := url.Parse(loc)
	if err != nil {
		return ""
	}
	if u.IsAbs() {
		return loc
	}
	base, err := url.Parse(from)
	if err != nil {
		return ""
	}
	return base.ResolveReference(u).String()
}

// Healthz reports whether the server answers /healthz with 200.
func (c *Client) Healthz(ctx context.Context) error {
	body, err := c.get(ctx, "/healthz")
	if err != nil {
		return err
	}
	_ = body
	return nil
}

// Metrics scrapes and parses the server's /metrics exposition. The
// returned samples key on the full sample name (labels included); two
// scrapes Delta into the traffic between them — how the loadtest
// harness builds its per-tier latency report.
func (c *Client) Metrics(ctx context.Context) (obs.Samples, error) {
	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseText(body)
}

func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Status: resp.StatusCode, Message: trim(body)}
	}
	return body, nil
}

func trim(b []byte) string {
	const max = 300
	s := string(bytes.TrimSpace(b))
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}

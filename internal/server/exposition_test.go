package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streammap/internal/fleet"
	"streammap/internal/server"
)

// expositionShape renders h's /metrics with the values stripped: every
// # HELP / # TYPE line as served, and every series' name and label set.
// The process_start_time_seconds family — the one addition since the
// goldens were dumped — is reported apart and left out of the shape.
func expositionShape(t *testing.T, h http.Handler) (shape string, startTime bool) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics answered %d", rec.Code)
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		if strings.Contains(line, "process_start_time_seconds") {
			startTime = true
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String(), startTime
}

// TestExpositionStable holds the exposition to what it was before the
// serving counters moved onto the registry: family names, kinds, HELP
// text and label sets, for a single node that has compiled once (so the
// per-stage series exist) and for a three-peer fleet member. The
// benchmark harness and CI read these series by name; a renamed or
// dropped one fails here, not there. Regenerate knowingly with
// OBS_REGEN_GOLDEN=1.
func TestExpositionStable(t *testing.T) {
	single := server.New(server.Config{})
	defer closeNow(t, single)
	body, err := json.Marshal(server.NewRequest(appGraph(t, "DES", 8), testOpts(2)))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	single.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("compile answered %d: %s", rec.Code, rec.Body)
	}

	peers := []string{"http://10.0.0.1:8372", "http://10.0.0.2:8372", "http://10.0.0.3:8372"}
	member := server.New(server.Config{Fleet: fleet.Config{SelfURL: peers[0], Peers: peers}})
	defer closeNow(t, member)

	for name, srv := range map[string]*server.Server{"single": single, "fleet": member} {
		got, startTime := expositionShape(t, srv.Handler())
		if !startTime {
			t.Errorf("%s: process_start_time_seconds absent from /metrics", name)
		}
		golden := filepath.Join("testdata", "exposition_"+name+".golden")
		if os.Getenv("OBS_REGEN_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("reading golden (regenerate with OBS_REGEN_GOLDEN=1): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s: exposition drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", name, golden, got, want)
		}
	}
}

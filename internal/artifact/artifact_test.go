package artifact_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"streammap/internal/artifact"
)

func readGolden(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "des4x2.artifact.json"))
	if err != nil {
		t.Fatalf("reading golden artifact: %v", err)
	}
	return data
}

// TestGoldenArtifactDecodes is the format-stability guardrail: the
// checked-in artifact, written by an earlier build, must keep decoding
// (TestGoldenArtifactExecutes in the root package holds it to executing).
// If a schema change breaks this test, bump FormatVersion and
// regenerate the golden file (go run ./cmd/streammap -app DES -n 4 -gpus 2
// -emit artifact -artifact-out internal/artifact/testdata/des4x2.artifact.json)
// — never silently reinterpret old bytes. The command reproduces the file
// byte for byte on any machine (a key determines its bytes), and CI holds it
// to that with cmp: a change that moves the compilation shows up there.
func TestGoldenArtifactDecodes(t *testing.T) {
	a, err := artifact.Decode(readGolden(t))
	if err != nil {
		t.Fatalf("decoding golden artifact: %v", err)
	}
	if a.Format != artifact.FormatVersion {
		t.Errorf("golden artifact format %d, want %d", a.Format, artifact.FormatVersion)
	}
	if a.Graph.Name != "DES-N4" {
		t.Errorf("golden graph name %q", a.Graph.Name)
	}
	if len(a.Partitions) == 0 || len(a.Assignment.GPUOf) != len(a.Partitions) {
		t.Fatalf("golden artifact inconsistent: %d partitions, %d assignments",
			len(a.Partitions), len(a.Assignment.GPUOf))
	}
	for _, key := range []string{`"pdg"`, `"computeBound"`} {
		if bytes.Contains(readGolden(t), []byte(key)) {
			t.Errorf("the golden encoding carries a %s key: the decoder derives it", key)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := artifact.Decode(readGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e2) {
		t.Error("Encode is not deterministic")
	}
	b, err := artifact.Decode(e1)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e3) {
		t.Error("Decode(Encode(a)).Encode() != Encode(a)")
	}
	if err := artifact.Equal(a, b); err != nil {
		t.Errorf("decoded artifact not Equal: %v", err)
	}
}

// TestEqualNamesTheDifferingLine: Equal is byte equality of the two
// encodings, so it sees every field — an objective and a partition's SM
// bytes as much as an assignment entry — and says where the first
// difference is.
func TestEqualNamesTheDifferingLine(t *testing.T) {
	golden := readGolden(t)
	decode := func() *artifact.Artifact {
		a, err := artifact.Decode(golden)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ref := decode()
	for _, tc := range []struct {
		name    string
		perturb func(a *artifact.Artifact)
		want    string // what the report must name, besides the line
	}{
		{"gpuOf entry", func(a *artifact.Artifact) { a.Assignment.GPUOf[0] ^= 1 }, `"gpuOf": [`},
		{"objective", func(a *artifact.Artifact) { a.Assignment.Objective *= 2 }, `"objective": `},
		{"SM bytes", func(a *artifact.Artifact) { a.Partitions[0].Est.SMBytes += 4 }, `"smBytes": `},
	} {
		b := decode()
		tc.perturb(b)
		err := artifact.Equal(ref, b)
		if err == nil {
			t.Errorf("%s: perturbed artifact compares equal", tc.name)
			continue
		}
		t.Logf("%s: %v", tc.name, err)
		for _, w := range []string{tc.want, "line "} {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: report %q does not mention %q", tc.name, err, w)
			}
		}
	}
	if bytes.Contains(golden, []byte(`"stages"`)) {
		t.Error("the golden encoding carries a stages key")
	}
}

// TestEqualSharedPair: Encode only reads its receiver, so one reference
// artifact can be compared from many goroutines (bench's concurrent clients
// do exactly that). Run under -race.
func TestEqualSharedPair(t *testing.T) {
	a, err := artifact.Decode(readGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := artifact.Decode(readGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	// An artifact built in place has no Format yet; Encode stamps the
	// encoding, not the receiver.
	a.Format = 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if err := artifact.Equal(a, b); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if a.Format != 0 {
		t.Errorf("Encode wrote format %d into its receiver", a.Format)
	}
}

// patch returns the golden encoding with its first old replaced by new,
// and fails the test if there is no old to replace: a patch that did not
// take would pass a rejection test for the wrong reason.
func patch(t *testing.T, old, new string) []byte {
	t.Helper()
	golden := readGolden(t)
	if !bytes.Contains(golden, []byte(old)) {
		t.Fatalf("the golden encoding has no %s to replace", old)
	}
	return bytes.Replace(golden, []byte(old), []byte(new), 1)
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	data := patch(t, fmt.Sprintf(`{"format":%d,`, artifact.FormatVersion), `{"format":999,`)
	_, err := artifact.Decode(data)
	if err == nil {
		t.Fatal("expected version-mismatch error")
	}
	if !errors.Is(err, artifact.ErrVersion) {
		t.Errorf("error %v is not ErrVersion", err)
	}
	// Another version's schema may differ anywhere; its version still
	// reports itself ahead of the field it breaks.
	data = bytes.Replace(data, []byte(`"fragmentIters":`), []byte(`"fragmentIters":"x","was":`), 1)
	if _, err := artifact.Decode(data); !errors.Is(err, artifact.ErrVersion) {
		t.Errorf("another version with a mistyped field: error %v is not ErrVersion", err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	data := readGolden(t)
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 2} {
		if _, err := artifact.Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d bytes not rejected", cut)
		}
	}
}

func TestDecodeRejectsCorruptSections(t *testing.T) {
	cases := []struct{ name, old, new string }{
		{"garbage", "{", "<"},
		{"negative fragment size", `"fragmentIters":`, `"fragmentIters":-`},
		{"mistyped fragment size", `"fragmentIters":`, `"fragmentIters":"x","was":`},
		{"empty partitions", `"partitions":[`, `"zzz":[`},
	}
	for _, c := range cases {
		_, err := artifact.Decode(patch(t, c.old, c.new))
		if err == nil {
			t.Errorf("%s not rejected", c.name)
		} else if errors.Is(err, artifact.ErrVersion) {
			t.Errorf("%s reported as a version mismatch: %v", c.name, err)
		}
	}
}

// TestValidateCatchesSemanticCorruption mutates decoded artifacts in ways
// plain JSON parsing cannot catch and demands Validate rejects each. The
// partitions' node lists are not Validate's to check: a broken cover or a
// non-convex partition fails in driver.FromArtifact, the one decoder.
func TestValidateCatchesSemanticCorruption(t *testing.T) {
	decode := func() *artifact.Artifact {
		a, err := artifact.Decode(readGolden(t))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, tc := range []struct {
		name    string
		corrupt func(a *artifact.Artifact)
	}{
		{"empty partition", func(a *artifact.Artifact) { a.Partitions[0].Nodes = nil }},
		{"zero kernel parameter", func(a *artifact.Artifact) { a.Partitions[0].Est.W = 0 }},
		{"short assignment", func(a *artifact.Artifact) { a.Assignment.GPUOf = a.Assignment.GPUOf[1:] }},
		{"gpu out of range", func(a *artifact.Artifact) { a.Assignment.GPUOf[0] = len(a.Options.Topo.GPUNodes) }},
		{"zero FragmentIters", func(a *artifact.Artifact) { a.Options.FragmentIters = 0 }},
	} {
		a := decode()
		tc.corrupt(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s not rejected", tc.name)
		}
	}
}

package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ErrVersion marks a decode failure caused by a format-version mismatch
// (as opposed to corruption). The disk cache distinguishes neither — both
// are misses — but callers that care can errors.Is against this.
var ErrVersion = errors.New("artifact: format version mismatch")

// Encode serializes the artifact deterministically: equal artifacts encode
// to equal bytes. The encoding carries FormatVersion whatever a.Format
// says; the receiver is only read, so one artifact may be encoded (and
// compared, see Equal) from many goroutines at once.
func (a *Artifact) Encode() ([]byte, error) {
	stamped := *a
	stamped.Format = FormatVersion
	if err := stamped.Validate(); err != nil {
		return nil, fmt.Errorf("artifact: refusing to encode an inconsistent artifact: %w", err)
	}
	data, err := json.MarshalIndent(&stamped, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses and validates an encoded artifact. It rejects other format
// versions (wrapping ErrVersion), truncated or corrupt input, and
// internally inconsistent artifacts.
func Decode(data []byte) (*Artifact, error) {
	// Probe the version first so a mismatch reports itself rather than
	// surfacing as an arbitrary field error.
	var probe struct {
		Format int `json:"format"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("artifact: corrupt encoding: %w", err)
	}
	if probe.Format != FormatVersion {
		return nil, fmt.Errorf("%w: artifact has version %d, this build reads %d", ErrVersion, probe.Format, FormatVersion)
	}
	a := &Artifact{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("artifact: corrupt encoding: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

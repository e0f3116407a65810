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

// Encode serializes the artifact deterministically as compact JSON: equal
// artifacts encode to equal bytes. The encoding carries FormatVersion
// whatever a.Format says; the receiver is only read, so one artifact may be
// encoded (and compared, see Equal) from many goroutines at once.
func (a *Artifact) Encode() ([]byte, error) {
	stamped := *a
	stamped.Format = FormatVersion
	if err := stamped.Validate(); err != nil {
		return nil, fmt.Errorf("artifact: refusing to encode an inconsistent artifact: %w", err)
	}
	return json.Marshal(&stamped)
}

// Decode parses and validates an encoded artifact in one pass. It rejects
// other format versions (wrapping ErrVersion), truncated or corrupt input,
// and internally inconsistent artifacts.
func Decode(data []byte) (*Artifact, error) {
	a := &Artifact{}
	err := json.Unmarshal(data, a)
	// json.Unmarshal checks the syntax before it fills anything, and past a
	// field of the wrong type it goes on filling the rest. So a malformed
	// document is corrupt, and a well-formed one of another version reports
	// its version rather than whichever field its schema changed.
	var syntax *json.SyntaxError
	if errors.As(err, &syntax) {
		return nil, fmt.Errorf("artifact: corrupt encoding: %w", err)
	}
	if a.Format != FormatVersion {
		return nil, fmt.Errorf("%w: artifact has version %d, this build reads %d", ErrVersion, a.Format, FormatVersion)
	}
	if err != nil {
		return nil, fmt.Errorf("artifact: corrupt encoding: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

package artifact

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Equal reports (as an error) the first difference between two artifacts,
// and nil when they are the same artifact. The encoding is deterministic and
// complete, so there is nothing to compare but its bytes: float fields match
// bit for bit or not at all, and no section is exempt. Only on a mismatch
// are the two encodings indented, and the report names the first line that
// differs.
func Equal(a, b *Artifact) error {
	ae, err := a.Encode()
	if err != nil {
		return fmt.Errorf("encoding first artifact: %w", err)
	}
	be, err := b.Encode()
	if err != nil {
		return fmt.Errorf("encoding second artifact: %w", err)
	}
	if bytes.Equal(ae, be) {
		return nil
	}
	var ai, bi bytes.Buffer
	if err := json.Indent(&ai, ae, "", " "); err != nil {
		return err
	}
	if err := json.Indent(&bi, be, "", " "); err != nil {
		return err
	}
	// Neither indented encoding is a prefix of the other (both close the
	// top-level object on their last line), so line i exists on both sides.
	al, bl := bytes.Split(ai.Bytes(), []byte("\n")), bytes.Split(bi.Bytes(), []byte("\n"))
	i := 0
	for bytes.Equal(al[i], bl[i]) {
		i++
	}
	// A bare array element says little; the nearest keyed line at or above
	// it (`"gpuOf": [`) says which array.
	k := i
	for k > 0 && !bytes.Contains(al[k], []byte(`":`)) {
		k--
	}
	return fmt.Errorf("encodings differ at line %d (last key %s): %s != %s",
		i+1, bytes.TrimSpace(al[k]), bytes.TrimSpace(al[i]), bytes.TrimSpace(bl[i]))
}

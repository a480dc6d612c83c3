package tree

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// forestState mirrors Forest for gob (nFeat is unexported to keep the
// training API surface clean).
type forestState struct {
	Trees []*Tree
	NFeat int
}

// GobEncode implements gob.GobEncoder so fitted forests persist through
// Detector.Save.
func (f *Forest) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(forestState{Trees: f.TreeList, NFeat: f.nFeat})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. The wire format is unchanged from
// before the packed inference layout — detectors saved by older builds load
// identically; the packed copy is rebuilt here, and trees it cannot pack
// are refused.
func (f *Forest) GobDecode(data []byte) error {
	var s forestState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return err
	}
	layout, err := pack(s.Trees)
	if err != nil {
		return fmt.Errorf("tree: decode forest: %w", err)
	}
	f.TreeList, f.nFeat, f.layout = s.Trees, s.NFeat, layout
	return nil
}

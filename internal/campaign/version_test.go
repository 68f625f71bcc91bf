package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fuzz"
)

// sealAs frames payload like Seal but stamps the given format version,
// producing the files an older (or newer) build would have written.
func sealAs(version uint32, payload []byte) []byte {
	data := Seal(payload)
	binary.BigEndian.PutUint32(data[8:12], version)
	return data
}

// v1Checkpoint re-encodes ck the way a version-1 build stored it: no
// RNG state in the snapshot, sealed as version 1.
func v1Checkpoint(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	old := *ck
	snap := *ck.Snap
	snap.RNGState = nil
	old.Snap = &snap
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	return sealAs(1, buf.Bytes())
}

// TestOpenRejectsV1: a well-formed frame (intact checksum) sealed by
// format version 1 must not open.
func TestOpenRejectsV1(t *testing.T) {
	_, err := Open(sealAs(1, []byte("state")))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 frame: got %v, want an unsupported-version error", err)
	}
}

// TestLoadLatestSkipsV1: a state directory holding only version-1
// checkpoints has no usable checkpoint, and each skip says why.
func TestLoadLatestSkipsV1(t *testing.T) {
	dir := t.TempDir()
	interruptedStart(t, OSFS{}, dir, testOpts())
	names, err := listCheckpoints(OSFS{}, dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoints written: %v", err)
	}
	for _, n := range names {
		path := filepath.Join(dir, checkpointsDir, n)
		data, err := OSFS{}.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(OSFS{}, path, v1Checkpoint(t, ck)); err != nil {
			t.Fatal(err)
		}
	}
	_, warns, err := LoadLatest(OSFS{}, dir)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
	if len(warns) != len(names) {
		t.Fatalf("want %d warnings, got %v", len(names), warns)
	}
	for _, w := range warns {
		if !strings.Contains(w, "unsupported checkpoint version 1") {
			t.Errorf("warning does not name the version: %q", w)
		}
	}
}

// TestAttachRejectsMissingRNGState: a current-version frame whose
// snapshot lacks the RNG state fails to attach instead of resuming a
// fresh random stream.
func TestAttachRejectsMissingRNGState(t *testing.T) {
	dir := t.TempDir()
	interruptedStart(t, OSFS{}, dir, testOpts())
	ck, _, err := LoadLatest(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	ck.Snap.RNGState = nil
	r := NewRunner(dir, Config{FS: OSFS{}, Interval: testInterval, Keep: 3})
	if err := r.Attach(compileT(t), testOpts(), ck); !errors.Is(err, fuzz.ErrRNGState) {
		t.Fatalf("Attach: got %v, want fuzz.ErrRNGState", err)
	}
}

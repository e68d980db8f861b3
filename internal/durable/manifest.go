package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"

	"repro/internal/wal"
)

// manifestName is the catalog root inside the data directory. The
// manifest is the commit point of a checkpoint: it lists every table,
// the segment files holding its durable rows, and the WAL sequence
// number recovery resumes replay from. It is replaced atomically
// (write-temp, sync, rename), so recovery always sees either the old
// checkpoint or the new one, never a torn mix.
const manifestName = "MANIFEST"

type manifestRaw struct {
	Name     string   `json:"name"`
	TimeCol  string   `json:"time_col"`
	ValueCol string   `json:"value_col"`
	Rows     int      `json:"rows"`
	Segments []string `json:"segments,omitempty"`
}

type manifestView struct {
	Name     string   `json:"name"`
	Source   string   `json:"source"`
	Metric   string   `json:"metric"`
	Delta    float64  `json:"delta"`
	N        int      `json:"n"`
	Rows     int      `json:"rows"`
	Segments []string `json:"segments,omitempty"`
}

type manifest struct {
	Version int            `json:"version"`
	WalSeq  uint64         `json:"wal_seq"` // replay resumes at this file
	Raw     []manifestRaw  `json:"raw,omitempty"`
	Views   []manifestView `json:"views,omitempty"`
}

// manifestVersion is the manifest format this build reads and writes.
// Version 2 lists segments that are one sealed WAL record each; a data
// directory of version 1 segments is refused at Open.
const manifestVersion = 2

// readManifest loads the manifest, returning (nil, nil) when none exists
// yet — a fresh data directory. Any other failure to open it fails: a
// manifest that exists but cannot be read is not an empty catalog.
func readManifest(fs wal.FS, dir string) (*manifest, error) {
	f, err := fs.Open(filepath.Join(dir, manifestName))
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: open manifest: %w", err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("durable: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("durable: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("durable: manifest version %d not supported", m.Version)
	}
	return &m, nil
}

// writeManifest atomically replaces the manifest. The rename inside seal
// is the checkpoint's commit point.
func writeManifest(fs wal.FS, dir string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return seal(fs, filepath.Join(dir, manifestName), data)
}

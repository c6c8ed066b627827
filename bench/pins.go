package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
)

// defaultSeed is the seed the output pins were written at. Runs at any
// other seed keep only the structural checks.
const defaultSeed = 1

//go:embed testdata/pins
var pinFS embed.FS

// pinFile holds the result hashes of one workload's ops at the default
// seed, indexed by each op's pin index.
type pinFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Hashes   []string `json:"hashes"`
}

// loadPins returns the pinned hashes of a workload, or nil when none were
// written.
func loadPins(workload string) ([]string, error) {
	data, err := pinFS.ReadFile("testdata/pins/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var pf pinFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("pins for %s: %w", workload, err)
	}
	if pf.Workload != workload || pf.Seed != defaultSeed {
		return nil, fmt.Errorf("pins for %s: file is for workload %q at seed %d", workload, pf.Workload, pf.Seed)
	}
	return pf.Hashes, nil
}

// writePins stores the hashes of pin indices 0..n-1; every index must have
// been seen.
func writePins(dir, workload string, hashes map[int]string, n int) error {
	pf := pinFile{Workload: workload, Seed: defaultSeed, Hashes: make([]string, n)}
	for i := range pf.Hashes {
		h, ok := hashes[i]
		if !ok {
			return fmt.Errorf("pins for %s: op %d never ran", workload, i)
		}
		pf.Hashes[i] = h
	}
	data, err := json.MarshalIndent(pf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), append(data, '\n'), 0o644)
}

// hashString is the pin hash of an op's canonical result text.
func hashString(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashJSON is hashString over v's JSON encoding.
func hashJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return hashString(string(data)), nil
}

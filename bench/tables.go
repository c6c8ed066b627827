package main

import (
	"fmt"
	"time"

	"mpic/internal/experiments"
)

// tablesPasses is how many passes over the experiment tables are pinned;
// pass p runs every table at seed+p.
const tablesPasses = 30

// tablesSystem regenerates the paper-reproduction tables in their -quick
// form, one table per op, in whole passes over experiments.Names().
type tablesSystem struct {
	seed  int64
	names []string
}

func newTablesSystem(cfg config) system {
	return &tablesSystem{seed: cfg.seed, names: experiments.Names()}
}

func tablesConfig(seed int64) experiments.Config {
	return experiments.Config{Trials: 10, Quick: true, Seed: seed}
}

func (d *tablesSystem) setup() error {
	t, err := experiments.Run(d.names[0], tablesConfig(warmupSeed))
	_, err = checkTable(t, err)
	return err
}

func (d *tablesSystem) run(ph *phase) error {
	for {
		for k, name := range d.names {
			claim := ph.claimInUnit
			if k == 0 {
				claim = ph.claim
			}
			i, ok := claim()
			if !ok {
				return nil
			}
			cfg := tablesConfig(d.seed + int64(i/len(d.names)))
			start := time.Now()
			t, err := experiments.Run(name, cfg)
			end := time.Now()
			hash, err := checkTable(t, err)
			ph.done(i, end.Sub(start), hash, err)
			ph.tr.span(i, "experiments.Run/"+name, 0, start, end)
		}
	}
}

func (d *tablesSystem) close() {}

// checkTable verifies a table's shape and returns the hash of its rows.
func checkTable(t *experiments.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if len(t.Rows) == 0 {
		return "", fmt.Errorf("table %s has no rows", t.ID)
	}
	for _, row := range t.Rows {
		if len(row) != len(t.Header) {
			return "", fmt.Errorf("table %s: row %q has %d cells for %d columns", t.ID, row, len(row), len(t.Header))
		}
	}
	return hashJSON(struct {
		ID   string
		Rows [][]string
	}{t.ID, t.Rows})
}

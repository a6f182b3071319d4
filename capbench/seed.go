package main

import (
	"fmt"
	"math/rand"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/translate"
)

// seedBatch is how many frames one pre-seed delivery carries.
const seedBatch = 512

// seedStore fills a fresh durable store in dir with seedTasks tasks of
// the workload's shape through the same target the translator uses, then
// snapshots it, so that every set-up recovers the same state.
func seedStore(s spec, seed int64, dir string, seedTasks int) error {
	store, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{Dir: dir})
	if err != nil {
		return fmt.Errorf("open seed store: %w", err)
	}
	target := translate.NewStoreTarget(store, dataflow)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cfg := shape(s.attrs)
	batch := make([]translate.Frame, 0, seedBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := target.DeliverFrames(batch)
		batch = batch[:0]
		return err
	}
	for w := 0; w < seedTasks/tasksPerWorkflow; w++ {
		recs := workflowRecords(cfg, seedWorkflowID(w), rng)
		for i := range recs {
			batch = append(batch, translate.Frame{Records: recs[i : i+1]})
			if len(batch) == seedBatch {
				if err := flush(); err != nil {
					store.Close()
					return fmt.Errorf("seed store: %w", err)
				}
			}
		}
	}
	if err := flush(); err != nil {
		store.Close()
		return fmt.Errorf("seed store: %w", err)
	}
	if err := store.Snapshot(); err != nil {
		store.Close()
		return fmt.Errorf("snapshot seed store: %w", err)
	}
	return store.Close()
}

package translate

import (
	"errors"
	"testing"

	"github.com/provlight/provlight/internal/dfanalyzer"
)

// TestSchemaSync pins the registration contract every store-feeding
// target shares: register once on growth, never without growth, and
// retry a failed registration on the next sync even without growth.
func TestSchemaSync(t *testing.T) {
	s := newSchemaSync("wf")
	var calls int
	var fail bool
	register := func(df *dfanalyzer.Dataflow) error {
		calls++
		if df.Tag != "wf" {
			t.Errorf("registered dataflow %q, want wf", df.Tag)
		}
		if fail {
			return errors.New("store down")
		}
		return nil
	}
	batch := []Frame{{Records: sampleRecords(2)}}

	if err := s.sync(batch, register); err != nil || calls != 1 {
		t.Fatalf("growth: err=%v calls=%d, want nil and 1", err, calls)
	}
	if err := s.sync(batch, register); err != nil || calls != 1 {
		t.Fatalf("no growth: err=%v calls=%d, want nil and still 1", err, calls)
	}

	// A new attribute grows the schema; the registration fails.
	grown := []Frame{{Records: sampleRecords(2)}}
	grown[0].Records[1].Data[0].Attributes[0].Name = "momentum"
	fail = true
	if err := s.sync(grown, register); err == nil || calls != 2 {
		t.Fatalf("failed registration: err=%v calls=%d, want an error and 2", err, calls)
	}
	// Same records again: no growth, but the failure is retried.
	fail = false
	if err := s.sync(batch, register); err != nil || calls != 3 {
		t.Fatalf("retry: err=%v calls=%d, want nil and 3", err, calls)
	}
	if err := s.sync(grown, register); err != nil || calls != 3 {
		t.Fatalf("after retry: err=%v calls=%d, want nil and still 3", err, calls)
	}
}

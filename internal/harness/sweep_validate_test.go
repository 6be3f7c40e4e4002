package harness

import (
	"errors"
	"testing"
)

// Sweep pre-flight validation: configurations that can never run must
// come back as a typed *SweepConfigError from RunSweep before any cell
// dispatches — historically a negative n panicked inside a worker
// goroutine (makeslice: len out of range) instead of erroring.

func TestSweepConfigValidation(t *testing.T) {
	cases := []struct {
		name  string
		sc    SweepConfig
		field string // "" means valid
	}{
		{name: "defaults", sc: SweepConfig{}},
		{name: "negative n", sc: SweepConfig{Ns: []int{-2}}, field: "Ns"},
		{name: "zero n", sc: SweepConfig{Ns: []int{0}}, field: "Ns"},
		{name: "crowded n", sc: SweepConfig{Ns: []int{400}}, field: "Ns"},
		{name: "unknown protocol", sc: SweepConfig{Protocols: []Protocol{"GOSSIP"}}, field: "Protocols"},
		{name: "negative workers", sc: SweepConfig{Workers: -1}, field: "Workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var sce *SweepConfigError
			if !errors.As(err, &sce) {
				t.Fatalf("Validate() = %v, want *SweepConfigError", err)
			}
			if sce.Field != tc.field {
				t.Errorf("Validate() faulted field %q, want %q (%v)", sce.Field, tc.field, err)
			}
		})
	}
}

// TestRunSweepRejectsBadConfig pins the fix at the RunSweep boundary:
// the worker-pool path returns the typed error instead of panicking.
func TestRunSweepRejectsBadConfig(t *testing.T) {
	_, err := RunSweep(SweepConfig{Ns: []int{-2}, Workers: 4})
	var sce *SweepConfigError
	if !errors.As(err, &sce) {
		t.Fatalf("RunSweep() error = %v, want *SweepConfigError", err)
	}
	if sce.Field != "Ns" {
		t.Errorf("RunSweep() faulted field %q, want Ns", sce.Field)
	}
}

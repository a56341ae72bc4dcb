package model

import "testing"

func TestBatchConfigZeroValue(t *testing.T) {
	var bc BatchConfig
	if err := bc.Validate(); err != nil {
		t.Fatalf("zero value must validate: %v", err)
	}
	if !bc.Unit() {
		t.Fatal("zero value must be a unit (batch-1) configuration")
	}
	if bc.EffDoorbell() != 1 || bc.EffCQDrain() != 1 || bc.EffQuantum() != 1 {
		t.Fatalf("zero value effective sizes = %d/%d/%d, want 1/1/1",
			bc.EffDoorbell(), bc.EffCQDrain(), bc.EffQuantum())
	}
}

func TestBatchConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		bc   BatchConfig
		ok   bool
	}{
		{"explicit unit", BatchConfig{Doorbell: 1, CQDrain: 1, Quantum: 1}, true},
		{"default", DefaultBatchConfig(), true},
		{"zero doorbell in non-zero config", BatchConfig{CQDrain: 16, Quantum: 8}, false},
		{"negative doorbell", BatchConfig{Doorbell: -1, CQDrain: 1, Quantum: 1}, false},
		{"zero cq drain", BatchConfig{Doorbell: 8, Quantum: 8}, false},
		{"zero quantum", BatchConfig{Doorbell: 8, CQDrain: 16}, false},
	}
	for _, c := range cases {
		if err := c.bc.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestBatchConfigFromFlags(t *testing.T) {
	if bc, err := BatchConfigFromFlags(0); err != nil || bc != (BatchConfig{}) {
		t.Fatalf("-batch 0 = %+v, %v; want zero value", bc, err)
	}
	if bc, err := BatchConfigFromFlags(8); err != nil || bc != (BatchConfig{Doorbell: 8, CQDrain: 8, Quantum: 8}) {
		t.Fatalf("-batch 8 = %+v, %v; want 8/8/8", bc, err)
	}
	if bc, err := BatchConfigFromFlags(1); err != nil || !bc.Unit() {
		t.Fatalf("-batch 1 = %+v, %v; want a unit config", bc, err)
	}
	if _, err := BatchConfigFromFlags(-3); err == nil {
		t.Fatal("negative -batch must error")
	}
}

// FuzzBatchConfig checks the configuration invariants over arbitrary knob
// values: Validate accepts exactly the zero value and all-positive configs;
// whenever Validate accepts, the effective sizes are at least 1; and Unit()
// agrees with "every effective size is 1".
func FuzzBatchConfig(f *testing.F) {
	f.Add(0, 0, 0)
	f.Add(1, 1, 1)
	f.Add(8, 16, 8)
	f.Add(-1, 4, 4)
	f.Add(0, 16, 8)
	f.Fuzz(func(t *testing.T, db, cq, quantum int) {
		bc := BatchConfig{Doorbell: db, CQDrain: cq, Quantum: quantum}
		err := bc.Validate()
		wantOK := bc == (BatchConfig{}) || (db >= 1 && cq >= 1 && quantum >= 1)
		if (err == nil) != wantOK {
			t.Fatalf("Validate(%+v) = %v, want ok=%v", bc, err, wantOK)
		}
		if bc.EffDoorbell() < 1 || bc.EffCQDrain() < 1 || bc.EffQuantum() < 1 {
			t.Fatalf("effective sizes below 1: %d/%d/%d", bc.EffDoorbell(), bc.EffCQDrain(), bc.EffQuantum())
		}
		unit := bc.EffDoorbell() == 1 && bc.EffCQDrain() == 1 && bc.EffQuantum() == 1
		if bc.Unit() != unit {
			t.Fatalf("Unit(%+v) = %v, want %v", bc, bc.Unit(), unit)
		}
		// Flag assembly must never produce a config Validate rejects, except
		// when the raw knob was itself invalid.
		if fbc, ferr := BatchConfigFromFlags(db); ferr == nil {
			if verr := fbc.Validate(); verr != nil {
				t.Fatalf("BatchConfigFromFlags(%d) built invalid config %+v: %v", db, fbc, verr)
			}
		}
	})
}

package main

import (
	"math"
	"reflect"
	"testing"
)

func TestOfferedLoadPinned(t *testing.T) {
	for _, name := range []string{"burst-20k", "flows-50k"} {
		w, err := buildWorkload(name, pinSeed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := w.single.WithDefaults()
		if got := cfg.OfferedLoadBps() / cfg.BottleneckRateBps; math.Abs(got-offeredLoad) > 1e-6 {
			t.Errorf("%s: offered load %.7f x capacity, want %v", name, got, offeredLoad)
		}
	}
}

// TestSetupDiffersOnlyInHorizon pins that the set-up configs are the timed
// configs with a one-RTT horizon and nothing else changed — in particular
// the Pareto on/off periods do not follow the horizon.
func TestSetupDiffersOnlyInHorizon(t *testing.T) {
	for _, name := range workloadNames {
		w, err := buildWorkload(name, pinSeed)
		if err != nil {
			t.Fatal(err)
		}
		s := w.setupVariant()
		timed, setup := w.configs(), s.configs()
		if len(timed) != len(setup) {
			t.Fatalf("%s: %d timed configs, %d set-up configs", name, len(timed), len(setup))
		}
		for i := range timed {
			a, b := timed[i], setup[i]
			if want := a.WithDefaults().RTT(); b.Duration != want {
				t.Errorf("%s[%d]: set-up horizon %v, want one RTT %v", name, i, b.Duration, want)
			}
			if b.Duration >= a.Duration {
				t.Errorf("%s[%d]: set-up horizon %v not below timed %v", name, i, b.Duration, a.Duration)
			}
			a.Duration, b.Duration = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s[%d]: set-up config differs beyond the horizon:\n timed %+v\nset-up %+v", name, i, a, b)
			}
		}
		if w.sweep != nil && !reflect.DeepEqual(w.sweep.Cells, s.sweep.Cells) {
			t.Errorf("%s: set-up sweep cells differ", name)
		}
		if s.cache {
			t.Errorf("%s: set-up executions write the result cache", name)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	for name, runs := range map[string]int{"paper-sweep": 102, "burst-20k": 1, "flows-50k": 1, "fluid-sweep": 30} {
		w, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := w.configs()
		if len(cfgs) != runs {
			t.Errorf("%s: %d runs, want %d", name, len(cfgs), runs)
		}
		for _, c := range cfgs {
			if c.Seed != 7 {
				t.Errorf("%s: run seeded %d, want 7", name, c.Seed)
			}
			if err := c.WithDefaults().Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	if _, err := buildWorkload("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

package main

import (
	"math"
	"testing"
	"time"
)

func TestCalibrator(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	if k := c.measure(); k <= 0 {
		t.Errorf("kernel time %v", k)
	}
	if err := c.close(); err != nil {
		t.Error(err)
	}
	if got := scaled(2*time.Second, calibRef); math.Abs(got-2) > 1e-12 {
		t.Errorf("scaled at the reference speed = %v, want 2", got)
	}
	if got := scaled(2*time.Second, 2*calibRef); math.Abs(got-1) > 1e-12 {
		t.Errorf("scaled on a host half as fast = %v, want 1", got)
	}
}

package engine

import "testing"

// TestConfigDefaultsZeroValues: the zero Config resolves to the documented
// defaults.
func TestConfigDefaultsZeroValues(t *testing.T) {
	var c Config
	c.defaults()
	if c.DecayFactor != 0.9 {
		t.Errorf("DecayFactor = %v, want 0.9", c.DecayFactor)
	}
	if c.DecayEvery != 400 {
		t.Errorf("schedule defaults wrong: %+v", c)
	}
}

// TestConfigEdgeValuesSurvive: explicit in-range values are preserved, and
// out-of-range decay factors fall back to the default.
func TestConfigEdgeValuesSurvive(t *testing.T) {
	c := Config{DecayFactor: 0.5, DecayEvery: 1000}
	c.defaults()
	if c.DecayFactor != 0.5 || c.DecayEvery != 1000 {
		t.Errorf("explicit values clobbered: %+v", c)
	}
	for _, f := range []float64{-1, 1, 7} {
		c = Config{DecayFactor: f}
		c.defaults()
		if c.DecayFactor != 0.9 {
			t.Errorf("DecayFactor %v resolved to %v, want the 0.9 default", f, c.DecayFactor)
		}
	}
}

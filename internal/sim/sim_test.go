package sim

import "testing"

// engines runs each simulator on a Config and returns its result as a
// comparable value.
var engines = []struct {
	name string
	run  func(Config) (any, error)
}{
	{"lockstep", func(cfg Config) (any, error) { return Lockstep(cfg, 0) }},
	{"closed", func(cfg Config) (any, error) { return Closed(cfg) }},
	{"alias", func(cfg Config) (any, error) { return Alias(cfg) }},
}

func TestConfigValidation(t *testing.T) {
	valid := Config{C: 2, W: 5, N: 64, Trials: 1}
	bad := []struct {
		name string
		edit func(*Config)
	}{
		{"C=0", func(c *Config) { c.C = 0 }},
		{"W=0", func(c *Config) { c.W = 0 }},
		{"alpha=-1", func(c *Config) { c.Alpha = -1 }},
		{"N=0", func(c *Config) { c.N = 0 }},
		{"N=1000", func(c *Config) { c.N = 1000 }},
		{"trials=0", func(c *Config) { c.Trials = 0 }},
		{"trials=-1", func(c *Config) { c.Trials = -1 }},
		{"kind=bogus", func(c *Config) { c.Kind = "bogus" }},
		{"hash=bogus", func(c *Config) { c.Hash = "bogus" }},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			if _, err := e.run(valid); err != nil {
				t.Errorf("rejected %+v: %v", valid, err)
			}
			for _, b := range bad {
				cfg := valid
				b.edit(&cfg)
				if _, err := e.run(cfg); err == nil {
					t.Errorf("accepted %s", b.name)
				}
			}
			if e.name == "alias" {
				one := valid
				one.C = 1
				if _, err := e.run(one); err == nil {
					t.Error("accepted a single stream")
				}
			}
		})
	}
}

func TestDeterministicBySeed(t *testing.T) {
	cfgs := map[string]Config{
		"lockstep": {C: 2, W: 10, Alpha: 2, N: 1024, Trials: 200, Seed: 7},
		"closed":   {C: 2, W: 5, Alpha: 2, N: 1024, Trials: 2, Seed: 7},
		"alias":    {C: 2, W: 10, N: 4096, Trials: 300, Seed: 7},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			a, err := e.run(cfgs[e.name])
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.run(cfgs[e.name])
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("same seed diverged: %+v vs %+v", a, b)
			}
		})
	}
}

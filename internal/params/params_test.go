package params

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.MaxResidentBlocks() != 28 {
		t.Fatalf("C2075: 14 MPs x 2 blocks = 28, got %d", c.MaxResidentBlocks())
	}
}

func TestScalingPreservesRatios(t *testing.T) {
	full := Default()
	s := Scaled(1.0 / 32)
	if err := s.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	if s.GPUMemBytes*32 != full.GPUMemBytes {
		t.Fatalf("GPU memory not scaled: %d", s.GPUMemBytes)
	}
	// The crossover-defining ratios survive scaling.
	if full.BufferCacheBytes*s.GPUMemBytes != s.BufferCacheBytes*full.GPUMemBytes {
		t.Fatalf("cache-to-memory ratio changed")
	}
	// Rates and latencies do not scale.
	if s.PCIeBandwidth != full.PCIeBandwidth || s.DMALatency != full.DMALatency {
		t.Fatalf("rates/latencies must not scale")
	}
	if s.ScaleBytes(32<<20) != 1<<20 {
		t.Fatalf("ScaleBytes: %d", s.ScaleBytes(32<<20))
	}
	if s.ScaleCount(64) != 2 {
		t.Fatalf("ScaleCount: %d", s.ScaleCount(64))
	}
	if s.ScaleCount(1) != 1 || s.ScaleBytes(1) != 1 {
		t.Fatalf("scaling must floor at 1")
	}
}

func TestApplyScalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic on zero scale")
		}
	}()
	c := Default()
	c.ApplyScale(0)
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"gpus", func(c *Config) { c.NumGPUs = 0 }, "NumGPUs"},
		{"mps", func(c *Config) { c.MPsPerGPU = 0 }, "MPsPerGPU"},
		{"blocks", func(c *Config) { c.BlocksPerMP = 0 }, "BlocksPerMP"},
		{"pagesize", func(c *Config) { c.PageSize = 100 }, "PageSize"},
		{"pagepow2", func(c *Config) { c.PageSize = 3000 }, "power of two"},
		{"cache", func(c *Config) { c.BufferCacheBytes = 1024 }, "smaller than one page"},
		{"gpumem", func(c *Config) { c.GPUMemBytes = 1 << 20 }, "smaller than buffer cache"},
		{"pcie", func(c *Config) { c.PCIeBandwidth = 0 }, "PCIeBandwidth"},
		{"disk", func(c *Config) { c.DiskBandwidth = 0 }, "DiskBandwidth"},
		{"mem", func(c *Config) { c.CPUMemBandwidth = 0 }, "CPUMemBandwidth"},
		{"scale", func(c *Config) { c.Scale = 0 }, "Scale"},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: err = %v, want mention of %q", m.name, err, m.want)
		}
	}
}

package platform

import "testing"

func TestHiKey970Topology(t *testing.T) {
	p := HiKey970()
	if got := p.NumCores(); got != 8 {
		t.Fatalf("NumCores = %d, want 8", got)
	}
	if got := p.NumClusters(); got != 2 {
		t.Fatalf("NumClusters = %d, want 2", got)
	}
	for c := CoreID(0); c < 4; c++ {
		if p.KindOf(c) != Little {
			t.Errorf("core %d: kind = %v, want LITTLE", c, p.KindOf(c))
		}
	}
	for c := CoreID(4); c < 8; c++ {
		if p.KindOf(c) != Big {
			t.Errorf("core %d: kind = %v, want big", c, p.KindOf(c))
		}
	}
}

func TestHiKey970Frequencies(t *testing.T) {
	p := HiKey970()
	little, li := p.ClusterByKind(Little)
	big, bi := p.ClusterByKind(Big)
	if li != 0 || bi != 1 {
		t.Fatalf("cluster indices = %d,%d, want 0,1", li, bi)
	}
	if got := little.MaxFreq(); got != 1844e6 {
		t.Errorf("LITTLE max freq = %g, want 1.844 GHz", got)
	}
	if got := big.MaxFreq(); got != 2362e6 {
		t.Errorf("big max freq = %g, want 2.362 GHz", got)
	}
	if little.NumOPPs() != 9 || big.NumOPPs() != 9 {
		t.Errorf("OPP counts = %d,%d, want 9,9", little.NumOPPs(), big.NumOPPs())
	}
	// Frequencies used in the paper's illustrative examples must exist.
	for _, f := range []float64{509e6, 1402e6, 1844e6} {
		if little.IndexOf(f) < 0 {
			t.Errorf("LITTLE missing OPP at %g Hz", f)
		}
	}
	for _, f := range []float64{682e6, 1210e6, 1498e6} {
		if big.IndexOf(f) < 0 {
			t.Errorf("big missing OPP at %g Hz", f)
		}
	}
}

func TestVoltagesMonotonic(t *testing.T) {
	p := HiKey970()
	for ci, c := range p.Clusters {
		for i := 1; i < c.NumOPPs(); i++ {
			if c.VoltageAt(i) < c.VoltageAt(i-1) {
				t.Errorf("cluster %d: voltage not monotonic at level %d", ci, i)
			}
		}
	}
}

func TestIndexOfRoundTrip(t *testing.T) {
	p := HiKey970()
	for ci, c := range p.Clusters {
		for i := range c.OPPs {
			if got := c.IndexOf(c.FreqAt(i)); got != i {
				t.Errorf("cluster %d: IndexOf(FreqAt(%d)) = %d", ci, i, got)
			}
		}
		if got := c.IndexOf(123e6); got != -1 {
			t.Errorf("cluster %d: IndexOf(non-OPP) = %d, want -1", ci, got)
		}
	}
}

func TestNewPanicsOnMalformedPlatform(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	opps := []OPP{{500e6, 0.7}, {1e9, 0.9}}
	mustPanic("duplicate core", func() {
		New([]*Cluster{{Kind: Little, Cores: []CoreID{0, 0}, OPPs: opps}})
	})
	mustPanic("gap in core IDs", func() {
		New([]*Cluster{{Kind: Little, Cores: []CoreID{0, 2}, OPPs: opps}})
	})
	mustPanic("no OPPs", func() {
		New([]*Cluster{{Kind: Little, Cores: []CoreID{0}}})
	})
	mustPanic("descending OPPs", func() {
		New([]*Cluster{{Kind: Little, Cores: []CoreID{0},
			OPPs: []OPP{{1e9, 0.9}, {500e6, 0.7}}}})
	})
}

func TestClusterKindString(t *testing.T) {
	if Little.String() != "LITTLE" || Big.String() != "big" {
		t.Errorf("kind strings = %q,%q", Little.String(), Big.String())
	}
	if ClusterKind(9).String() == "" {
		t.Error("unknown kind: empty string")
	}
}

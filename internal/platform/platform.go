// Package platform models a heterogeneous clustered multi-core processor
// with per-cluster DVFS, mirroring the HiSilicon Kirin 970 SoC of the
// HiKey970 board used in the paper: four Arm Cortex-A53 cores (LITTLE
// cluster) and four Arm Cortex-A73 cores (big cluster), each cluster with
// its own operating-performance-point (OPP) ladder.
//
// The package is purely descriptive: it holds the static topology and OPP
// tables. Dynamic state (current VF levels, mappings) lives in the
// simulation engine.
package platform

import "fmt"

// ClusterKind identifies the microarchitectural class of a cluster.
type ClusterKind int

const (
	// Little is the energy-efficient in-order cluster (Cortex-A53/A55).
	Little ClusterKind = iota
	// Mid is the balanced out-of-order cluster of tri-gear (DynamIQ)
	// designs (Cortex-A76 class). The paper's platform has no mid
	// cluster, but its solution "is compatible with any number of
	// clusters"; this kind exercises that claim.
	Mid
	// Big is the high-performance out-of-order cluster (Cortex-A73/X1).
	Big
)

// String returns the conventional spelling.
func (k ClusterKind) String() string {
	switch k {
	case Little:
		return "LITTLE"
	case Mid:
		return "mid"
	case Big:
		return "big"
	default:
		return fmt.Sprintf("ClusterKind(%d)", int(k))
	}
}

// CoreID identifies a core globally on the chip (0..NumCores-1).
type CoreID int

// OPP is one operating performance point of a cluster: a frequency and the
// supply voltage required to sustain it.
type OPP struct {
	Freq    float64 // Hz
	Voltage float64 // V
}

// Cluster describes one voltage/frequency domain and the cores it contains.
// All cores of a cluster always run at the same OPP (per-cluster DVFS).
type Cluster struct {
	Kind  ClusterKind
	Cores []CoreID // global core IDs belonging to this cluster
	OPPs  []OPP    // ascending by frequency
}

// NumOPPs returns the number of VF levels of the cluster.
func (c *Cluster) NumOPPs() int { return len(c.OPPs) }

// MinFreq returns the lowest available frequency in Hz.
func (c *Cluster) MinFreq() float64 { return c.OPPs[0].Freq }

// MaxFreq returns the highest available frequency in Hz.
func (c *Cluster) MaxFreq() float64 { return c.OPPs[len(c.OPPs)-1].Freq }

// FreqAt returns the frequency of VF level idx in Hz.
func (c *Cluster) FreqAt(idx int) float64 { return c.OPPs[idx].Freq }

// VoltageAt returns the supply voltage of VF level idx in V.
func (c *Cluster) VoltageAt(idx int) float64 { return c.OPPs[idx].Voltage }

// IndexOf returns the VF level index whose frequency equals f (within one
// part in 1e6), or -1 if f is not an OPP of this cluster.
func (c *Cluster) IndexOf(f float64) int {
	for i, o := range c.OPPs {
		d := o.Freq - f
		if d < 0 {
			d = -d
		}
		if d <= o.Freq*1e-6 {
			return i
		}
	}
	return -1
}

// Platform is a complete chip description: a fixed set of clusters and the
// mapping from global core IDs to clusters.
type Platform struct {
	Clusters    []*Cluster
	coreCluster []int // core ID -> index into Clusters
}

// New assembles a Platform from clusters. Core IDs must be dense, unique and
// start at zero; New panics otherwise because a malformed platform is a
// programming error, not a runtime condition.
func New(clusters []*Cluster) *Platform {
	n := 0
	for _, c := range clusters {
		n += len(c.Cores)
	}
	cc := make([]int, n)
	for i := range cc {
		cc[i] = -1
	}
	for ci, c := range clusters {
		if len(c.OPPs) == 0 {
			panic(fmt.Sprintf("platform: cluster %d has no OPPs", ci))
		}
		for i := 1; i < len(c.OPPs); i++ {
			if c.OPPs[i].Freq <= c.OPPs[i-1].Freq {
				panic(fmt.Sprintf("platform: cluster %d OPPs not ascending", ci))
			}
		}
		for _, core := range c.Cores {
			if int(core) < 0 || int(core) >= n {
				panic(fmt.Sprintf("platform: core ID %d out of range [0,%d)", core, n))
			}
			if cc[core] != -1 {
				panic(fmt.Sprintf("platform: core ID %d assigned to two clusters", core))
			}
			cc[core] = ci
		}
	}
	for id, ci := range cc {
		if ci == -1 {
			panic(fmt.Sprintf("platform: core ID %d not assigned to any cluster", id))
		}
	}
	return &Platform{Clusters: clusters, coreCluster: cc}
}

// NumCores returns the total number of cores on the chip.
func (p *Platform) NumCores() int { return len(p.coreCluster) }

// NumClusters returns the number of voltage/frequency domains.
func (p *Platform) NumClusters() int { return len(p.Clusters) }

// ClusterIndexOf returns the index (into Clusters) of the cluster that
// contains core c.
func (p *Platform) ClusterIndexOf(c CoreID) int { return p.coreCluster[c] }

// ClusterOf returns the cluster that contains core c.
func (p *Platform) ClusterOf(c CoreID) *Cluster { return p.Clusters[p.coreCluster[c]] }

// KindOf returns the microarchitectural kind of the cluster containing c.
func (p *Platform) KindOf(c CoreID) ClusterKind { return p.ClusterOf(c).Kind }

// ClusterByKind returns the first cluster of the given kind and its index,
// or (nil, -1) if the platform has no such cluster.
func (p *Platform) ClusterByKind(k ClusterKind) (*Cluster, int) {
	for i, c := range p.Clusters {
		if c.Kind == k {
			return c, i
		}
	}
	return nil, -1
}

// HiKey970 returns the platform model of the HiKey970 board: a Kirin 970
// with four Cortex-A53 (cores 0-3) and four Cortex-A73 (cores 4-7).
// Frequency ladders follow the board's cpufreq tables (the paper quotes the
// 1.84 GHz / 2.36 GHz maxima); voltages are a standard near-linear V-f map
// for the respective process corners.
func HiKey970() *Platform {
	little := &Cluster{
		Kind:  Little,
		Cores: []CoreID{0, 1, 2, 3},
		OPPs: []OPP{
			{509e6, 0.70}, {682e6, 0.73}, {829e6, 0.76}, {1018e6, 0.80},
			{1210e6, 0.84}, {1402e6, 0.88}, {1556e6, 0.92}, {1690e6, 0.96},
			{1844e6, 1.00},
		},
	}
	big := &Cluster{
		Kind:  Big,
		Cores: []CoreID{4, 5, 6, 7},
		OPPs: []OPP{
			{682e6, 0.70}, {1018e6, 0.75}, {1210e6, 0.79}, {1364e6, 0.83},
			{1498e6, 0.86}, {1652e6, 0.90}, {1863e6, 0.95}, {2093e6, 1.02},
			{2362e6, 1.10},
		},
	}
	return New([]*Cluster{little, big})
}

// TriCluster returns a DynamIQ-style three-gear platform: four LITTLE
// cores (0-3), two mid cores (4-5) and two big cores (6-7), each cluster
// its own DVFS domain. It exists to exercise the management policies'
// any-number-of-clusters generality; the paper's experiments all use
// HiKey970.
func TriCluster() *Platform {
	little := &Cluster{
		Kind:  Little,
		Cores: []CoreID{0, 1, 2, 3},
		OPPs: []OPP{
			{500e6, 0.70}, {800e6, 0.75}, {1100e6, 0.80}, {1400e6, 0.86},
			{1700e6, 0.93}, {2000e6, 1.00},
		},
	}
	mid := &Cluster{
		Kind:  Mid,
		Cores: []CoreID{4, 5},
		OPPs: []OPP{
			{600e6, 0.70}, {1000e6, 0.76}, {1400e6, 0.82}, {1800e6, 0.89},
			{2200e6, 0.97}, {2500e6, 1.05},
		},
	}
	big := &Cluster{
		Kind:  Big,
		Cores: []CoreID{6, 7},
		OPPs: []OPP{
			{700e6, 0.72}, {1100e6, 0.78}, {1500e6, 0.85}, {1900e6, 0.92},
			{2400e6, 1.00}, {2800e6, 1.10},
		},
	}
	return New([]*Cluster{little, mid, big})
}

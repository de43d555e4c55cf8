package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringPoint is one virtual node: a hash position owned by a replica.
type ringPoint struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring over named nodes. Each node
// owns `vnodes` pseudo-random positions on a 64-bit circle (FNV-1a of
// "name#i"), and a key is served by the node owning the first position at
// or clockwise after the key's hash. Virtual nodes smooth the load split
// (with 64 per node the imbalance stays within a few percent) and make
// membership changes remap only the keys adjacent to the moved points —
// the property that lets a replica join or leave without reshuffling
// every job's home.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

// DefaultVnodes is the virtual-node count used when NewRing gets v <= 0.
const DefaultVnodes = 64

// NewRing builds a ring over the given node names. Names must be unique;
// duplicates make ownership ambiguous, so they are rejected.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*vnodes),
	}
	for i, name := range nodes {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hashKey(fmt.Sprintf("%s#%d", name, v)),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break by node index so the ring is deterministic even on a
		// (vanishingly unlikely) 64-bit hash collision.
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// hashKey maps an arbitrary key onto the ring circle: FNV-1a followed by
// a 64-bit avalanche finalizer (the Murmur3 fmix). Raw FNV of short,
// similar strings ("a#0", "a#1", ...) clusters on the circle badly enough
// to skew node ownership several-fold; the finalizer spreads those points
// uniformly.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the Murmur3 64-bit finalizer: full avalanche, bijective.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Lookup returns up to n distinct nodes for the key, in preference order:
// the owner first, then the distinct successors walking clockwise. This
// is the failover chain — the router tries Lookup(key, len(nodes)) in
// order until a replica answers.
func (r *Ring) Lookup(key string, n int) []string {
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, r.nodes[p.node])
	}
	return out
}

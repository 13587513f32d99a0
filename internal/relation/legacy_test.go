package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the pre-snapshot relation graph as an independent oracle
// for Graph: Eq. (1) learn weights kept in plain maps, and generation-time
// reads (pickBase, successors, walk) that scan, allocate and sort on every
// call instead of reading a published Snapshot. Graph's own reads delegate
// to Snapshot, so only this reference checks them against a separate
// implementation.

// legacyFleetEdge mirrors Edge for the legacy graph.
type legacyFleetEdge struct {
	to     string
	weight float64
}

type legacyFleetVertex struct {
	weight float64
	out    map[string]float64
	in     map[string]float64
}

// legacyFleetGraph is the pre-snapshot relation graph.
type legacyFleetGraph struct {
	verts map[string]*legacyFleetVertex
	names []string
	edges int
}

func newLegacyFleetGraph() *legacyFleetGraph {
	return &legacyFleetGraph{verts: make(map[string]*legacyFleetVertex)}
}

func (g *legacyFleetGraph) addVertex(name string, weight float64) {
	if weight <= 0 {
		weight = 0.01
	}
	if weight >= 1 {
		weight = 0.99
	}
	if v, ok := g.verts[name]; ok {
		v.weight = weight
		return
	}
	g.verts[name] = &legacyFleetVertex{
		weight: weight,
		out:    make(map[string]float64),
		in:     make(map[string]float64),
	}
	g.names = append(g.names, name)
}

// learn is Eq. (1), kept verbatim from the pre-snapshot graph so the two
// graphs evolve the same weights from the same operation sequence.
func (g *legacyFleetGraph) learn(a, b string) {
	if a == b {
		return
	}
	va, ok := g.verts[a]
	if !ok {
		return
	}
	vb, ok := g.verts[b]
	if !ok {
		return
	}
	if _, existed := va.out[b]; !existed {
		g.edges++
	}
	siblings := make([]string, 0, len(vb.in))
	for x := range vb.in {
		if x != a {
			siblings = append(siblings, x)
		}
	}
	sort.Strings(siblings)
	var sum float64
	for _, x := range siblings {
		half := vb.in[x] / 2
		vb.in[x] = half
		g.verts[x].out[b] = half
		sum += half
	}
	w := 1 - sum
	if w < 0 {
		w = 0
	}
	va.out[b] = w
	vb.in[a] = w
}

// pickBase is the weighted base draw as a full scan over all vertices.
func (g *legacyFleetGraph) pickBase(rng *rand.Rand) string {
	var total float64
	for _, name := range g.names {
		total += g.verts[name].weight
	}
	if total == 0 {
		return ""
	}
	x := rng.Float64() * total
	for _, name := range g.names {
		x -= g.verts[name].weight
		if x <= 0 {
			return name
		}
	}
	return g.names[len(g.names)-1]
}

// successors allocates a fresh slice and sorts it on every call.
func (g *legacyFleetGraph) successors(name string) []legacyFleetEdge {
	v, ok := g.verts[name]
	if !ok {
		return nil
	}
	out := make([]legacyFleetEdge, 0, len(v.out))
	for b, w := range v.out {
		out = append(out, legacyFleetEdge{to: b, weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].weight != out[j].weight {
			return out[i].weight > out[j].weight
		}
		return out[i].to < out[j].to
	})
	return out
}

// walk replays the historical draw sequence: stop draw first every step,
// selection draw only with positive successor mass.
func (g *legacyFleetGraph) walk(rng *rand.Rand, from string, maxLen int, stopProb float64) []string {
	var path []string
	cur := from
	for len(path) < maxLen {
		if rng.Float64() < stopProb {
			break
		}
		succ := g.successors(cur)
		if len(succ) == 0 {
			break
		}
		var total float64
		for _, e := range succ {
			total += e.weight
		}
		if total <= 0 {
			break
		}
		x := rng.Float64() * total
		next := succ[len(succ)-1].to
		for _, e := range succ {
			x -= e.weight
			if x <= 0 {
				next = e.to
				break
			}
		}
		path = append(path, next)
		cur = next
	}
	return path
}

func (g *legacyFleetGraph) edgeCount() int { return g.edges }

const (
	fleetVertices  = 48
	fleetPrelearns = 160
	fleetWalkLen   = 6
	fleetStopProb  = 0.1
)

// splitmix64 is the deterministic generator for the learn sequence.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fleetNames returns the fixed synthetic vertex set shared by both graphs.
func fleetNames() []string {
	names := make([]string, fleetVertices)
	for i := range names {
		names[i] = fmt.Sprintf("call_%02d", i)
	}
	return names
}

// fleetLearnSeq is the deterministic learn sequence applied to both graphs
// so walks have real successor structure.
func fleetLearnSeq(names []string) [][2]string {
	rng := splitmix64(11)
	seq := make([][2]string, 0, fleetPrelearns)
	for len(seq) < fleetPrelearns {
		a := names[rng.next()%uint64(len(names))]
		b := names[rng.next()%uint64(len(names))]
		if a == b {
			continue
		}
		seq = append(seq, [2]string{a, b})
	}
	return seq
}

func newFleetGraph(names []string) *Graph {
	g := New()
	for i, name := range names {
		g.AddVertex(name, 0.05+float64(i%10)*0.01)
	}
	for _, p := range fleetLearnSeq(names) {
		g.Learn(p[0], p[1])
	}
	return g
}

func newFleetLegacyGraph(names []string) *legacyFleetGraph {
	g := newLegacyFleetGraph()
	for i, name := range names {
		g.addVertex(name, 0.05+float64(i%10)*0.01)
	}
	for _, p := range fleetLearnSeq(names) {
		g.learn(p[0], p[1])
	}
	return g
}

// TestLegacyFleetGraphMatchesSnapshot pins Graph to the pre-snapshot
// reference: built from the same vertex/learn sequence, both must hold the
// same edges and weights and draw the same bases and walks from paired
// RNGs.
func TestLegacyFleetGraphMatchesSnapshot(t *testing.T) {
	names := fleetNames()
	g := newFleetGraph(names)
	lg := newFleetLegacyGraph(names)

	if got, want := g.Edges(), lg.edgeCount(); got != want {
		t.Fatalf("edge counts diverge: snapshot graph %d, legacy %d", got, want)
	}
	for _, name := range names {
		succ := g.Snapshot().Successors(name)
		lsucc := lg.successors(name)
		if len(succ) != len(lsucc) {
			t.Fatalf("successors(%s): snapshot %d edges, legacy %d", name, len(succ), len(lsucc))
		}
		for i := range succ {
			if succ[i].To != lsucc[i].to || succ[i].Weight != lsucc[i].weight {
				t.Fatalf("successors(%s)[%d]: snapshot %s/%g, legacy %s/%g",
					name, i, succ[i].To, succ[i].Weight, lsucc[i].to, lsucc[i].weight)
			}
		}
	}

	rngA := rand.New(rand.NewSource(42))
	rngB := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		base := g.PickBase(rngA)
		lbase := lg.pickBase(rngB)
		if base != lbase {
			t.Fatalf("draw %d: PickBase %q, legacy %q", i, base, lbase)
		}
		walk := g.Walk(rngA, base, fleetWalkLen, fleetStopProb)
		lwalk := lg.walk(rngB, lbase, fleetWalkLen, fleetStopProb)
		if len(walk) != len(lwalk) {
			t.Fatalf("draw %d: walk lengths %d vs %d", i, len(walk), len(lwalk))
		}
		for j := range walk {
			if walk[j] != lwalk[j] {
				t.Fatalf("draw %d step %d: %q vs %q", i, j, walk[j], lwalk[j])
			}
		}
	}
}

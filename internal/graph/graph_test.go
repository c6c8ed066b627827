package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestGenerators(t *testing.T) {
	tests := []struct {
		name     string
		g        *Graph
		wantN    int
		wantM    int
		wantDiam int
	}{
		{"line 5", Line(5), 5, 4, 4},
		{"ring 6", Ring(6), 6, 6, 3},
		{"star 7", Star(7), 7, 6, 2},
		{"clique 5", Clique(5), 5, 10, 1},
		{"grid 3x4", Grid(3, 4), 12, 17, 5},
		{"tree 7/2", BalancedTree(7, 2), 7, 6, 4},
		{"single", Line(1), 1, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.N(); got != tt.wantN {
				t.Errorf("N() = %d, want %d", got, tt.wantN)
			}
			if got := tt.g.M(); got != tt.wantM {
				t.Errorf("M() = %d, want %d", got, tt.wantM)
			}
			if got := tt.g.Diameter(); got != tt.wantDiam {
				t.Errorf("Diameter() = %d, want %d", got, tt.wantDiam)
			}
		})
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestValidateDisconnected(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Error("disconnected graph validated")
	}
	if err := New(0).Validate(); err == nil {
		t.Error("empty graph validated")
	}
}

func TestNeighborsSortedAndDegrees(t *testing.T) {
	g := Star(5)
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatal("neighbors not sorted ascending")
		}
	}
	if g.Degree(0) != 4 || g.Degree(1) != 1 {
		t.Error("degrees wrong for star")
	}
	if g.MaxDegree() != 4 {
		t.Errorf("MaxDegree() = %d, want 4", g.MaxDegree())
	}
}

func TestHasEdge(t *testing.T) {
	g := Line(3)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge false for existing edge")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge true for missing edge")
	}
}

func TestEdgesSortedCanonical(t *testing.T) {
	g := Ring(5)
	es := g.Edges()
	if len(es) != 5 {
		t.Fatalf("len(Edges()) = %d, want 5", len(es))
	}
	for i, e := range es {
		if e.U >= e.V {
			t.Errorf("edge %d not canonical: %+v", i, e)
		}
		if i > 0 {
			p := es[i-1]
			if p.U > e.U || (p.U == e.U && p.V >= e.V) {
				t.Error("edges not sorted")
			}
		}
	}
}

// TestEdgesMatchSortedReference checks the sort-free Edges against the
// edge list copied and sorted, its implementation before it walked the
// adjacency, on every generator and on a graph whose edges were added
// out of order; the returned slice must be a copy.
func TestEdgesMatchSortedReference(t *testing.T) {
	shuffled := New(6)
	for _, e := range [][2]Node{{4, 1}, {0, 5}, {3, 2}, {2, 0}, {5, 1}, {1, 0}, {3, 4}} {
		mustAdd(shuffled, e[0], e[1])
	}
	graphs := map[string]*Graph{
		"line 9": Line(9), "ring 7": Ring(7), "star 8": Star(8), "clique 6": Clique(6),
		"grid 3x4": Grid(3, 4), "tree 13/2": BalancedTree(13, 2), "tree 13/3": BalancedTree(13, 3),
		"single": Line(1), "shuffled": shuffled,
	}
	for seed := int64(1); seed <= 5; seed++ {
		graphs[fmt.Sprintf("random 12/%d", seed)] = RandomConnected(12, 10, rand.New(rand.NewSource(seed)))
	}
	for _, name := range []string{"line", "ring", "star", "clique", "tree", "random"} {
		g, err := ByName(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		graphs["ByName "+name] = g
	}
	for name, g := range graphs {
		want := append([]Edge(nil), g.edges...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].U != want[j].U {
				return want[i].U < want[j].U
			}
			return want[i].V < want[j].V
		})
		got := g.Edges()
		if !slices.Equal(got, want) {
			t.Errorf("%s: Edges() = %v, want %v", name, got, want)
			continue
		}
		if len(got) > 0 {
			got[0] = Edge{U: -1, V: -1}
			if slices.Contains(g.Edges(), got[0]) {
				t.Errorf("%s: Edges() shares its slice with the graph", name)
			}
		}
	}
}

func TestBFSTreeLine(t *testing.T) {
	g := Line(5)
	tr := g.BFSTree(0)
	if tr.Depth != 5 {
		t.Errorf("Depth = %d, want 5", tr.Depth)
	}
	for v := 1; v < 5; v++ {
		if tr.Parent[v] != Node(v-1) {
			t.Errorf("Parent[%d] = %d, want %d", v, tr.Parent[v], v-1)
		}
		if tr.Level[v] != v+1 {
			t.Errorf("Level[%d] = %d, want %d", v, tr.Level[v], v+1)
		}
	}
	if !tr.IsLeaf(4) || tr.IsLeaf(2) {
		t.Error("IsLeaf wrong")
	}
}

func TestBFSTreeStarCenterRoot(t *testing.T) {
	g := Star(6)
	tr := g.BFSTree(0)
	if tr.Depth != 2 {
		t.Errorf("Depth = %d, want 2", tr.Depth)
	}
	if len(tr.Children[0]) != 5 {
		t.Errorf("root children = %d, want 5", len(tr.Children[0]))
	}
}

// Property: BFS trees of random connected graphs are true spanning trees.
func TestBFSTreeProperty(t *testing.T) {
	f := func(seed int64, nRaw, extraRaw uint8) bool {
		n := int(nRaw)%30 + 2
		extra := int(extraRaw) % n
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(n, extra, rng)
		tr := g.BFSTree(0)
		// Every non-root node has a parent it is adjacent to, with level
		// one greater than the parent's.
		count := 1
		for v := 1; v < n; v++ {
			p := tr.Parent[v]
			if !g.HasEdge(Node(v), p) {
				return false
			}
			if tr.Level[v] != tr.Level[p]+1 {
				return false
			}
			count++
		}
		// Children lists partition non-root nodes.
		childCount := 0
		for v := 0; v < n; v++ {
			childCount += len(tr.Children[v])
		}
		return count == n && childCount == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRandomConnectedEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := RandomConnected(10, 5, rng)
	if g.M() != 14 {
		t.Errorf("M() = %d, want 14 (9 tree + 5 extra)", g.M())
	}
	// Extra edges capped at the complete graph.
	rng = rand.New(rand.NewSource(42))
	g = RandomConnected(4, 100, rng)
	if g.M() != 6 {
		t.Errorf("M() = %d, want 6 (clique)", g.M())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"line", "ring", "star", "clique", "tree", "random"} {
		g, err := ByName(name, 8)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if g.N() != 8 {
			t.Errorf("ByName(%q).N() = %d, want 8", name, g.N())
		}
	}
	if _, err := ByName("mobius", 8); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := ByName("ring", 2); err == nil {
		t.Error("ring of 2 accepted")
	}
	// Party counts below one are an error, not a panic in New.
	for _, name := range []string{"line", "ring", "star", "clique", "tree", "random"} {
		for _, n := range []int{0, -3} {
			if _, err := ByName(name, n); err == nil {
				t.Errorf("ByName(%q, %d) accepted", name, n)
			}
		}
	}
}

// checkIndices checks EdgeIndex and LinkIndex on every node pair of g
// against the edge set want: each edge gets a distinct ID in [0, M()),
// both orientations agree, Edge maps the ID back to the canonical edge,
// and non-edges, self-loops and out-of-range nodes give -1.
func checkIndices(t *testing.T, name string, g *Graph, want []Edge) {
	t.Helper()
	isEdge := make(map[Edge]bool, len(want))
	for _, e := range want {
		isEdge[e.Canonical()] = true
	}
	ids := make([]bool, g.M())
	n := Node(g.N())
	for u := Node(0); u < n; u++ {
		for v := Node(0); v < n; v++ {
			id := g.EdgeIndex(u, v)
			if !isEdge[Edge{U: u, V: v}.Canonical()] || u == v {
				if id != -1 || g.LinkIndex(u, v) != -1 {
					t.Fatalf("%s: non-edge (%d,%d) has EdgeIndex %d, LinkIndex %d", name, u, v, id, g.LinkIndex(u, v))
				}
				continue
			}
			if id < 0 || id >= g.M() || g.EdgeIndex(v, u) != id {
				t.Fatalf("%s: edge (%d,%d) has EdgeIndex %d, reversed %d", name, u, v, id, g.EdgeIndex(v, u))
			}
			if got := g.Edge(id); got != (Edge{U: u, V: v}).Canonical() {
				t.Fatalf("%s: Edge(%d) = %v, want (%d,%d)", name, id, got, u, v)
			}
			wantLink := 2 * id
			if u > v {
				wantLink++
			}
			if g.LinkIndex(u, v) != wantLink {
				t.Fatalf("%s: LinkIndex(%d,%d) = %d, want %d", name, u, v, g.LinkIndex(u, v), wantLink)
			}
			if u < v {
				if ids[id] {
					t.Fatalf("%s: edge ID %d reused", name, id)
				}
				ids[id] = true
			}
		}
		for _, bad := range []Node{-1, -7, n, n + 3} {
			if g.EdgeIndex(u, bad) != -1 || g.EdgeIndex(bad, u) != -1 || g.LinkIndex(u, bad) != -1 || g.LinkIndex(bad, u) != -1 {
				t.Fatalf("%s: out-of-range node %d indexed from %d", name, bad, u)
			}
		}
	}
	for id, seen := range ids {
		if !seen {
			t.Fatalf("%s: edge ID %d unused", name, id)
		}
	}
}

func TestEdgeAndLinkIndex(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *Graph
	}{
		{"line 6", Line(6)},
		{"ring 7", Ring(7)},
		{"clique 6", Clique(6)},
		{"random 12", RandomConnected(12, 9, rand.New(rand.NewSource(5)))},
	} {
		edges := tt.g.Edges()
		checkIndices(t, tt.name, tt.g, edges)
		// The same edges added in shuffled order and orientation, checked
		// before and after Validate.
		rng := rand.New(rand.NewSource(int64(len(edges))))
		h := New(tt.g.N())
		for _, i := range rng.Perm(len(edges)) {
			e := edges[i]
			if rng.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			if err := h.AddEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			if err := h.AddEdge(e.V, e.U); err == nil {
				t.Fatalf("%s: duplicate edge (%d,%d) accepted", tt.name, e.V, e.U)
			}
		}
		checkIndices(t, tt.name+" before Validate", h, edges)
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		checkIndices(t, tt.name+" after Validate", h, edges)
		for v := 0; v < h.N(); v++ {
			nb := h.Neighbors(Node(v))
			for i := 1; i < len(nb); i++ {
				if nb[i-1] >= nb[i] {
					t.Fatalf("%s: neighbors of %d not ascending: %v", tt.name, v, nb)
				}
			}
		}
	}
}

func TestIndexOf(t *testing.T) {
	nodes := []Node{1, 4, 9}
	for i, v := range nodes {
		if IndexOf(nodes, v) != i {
			t.Errorf("IndexOf(%d) = %d, want %d", v, IndexOf(nodes, v), i)
		}
	}
	for _, v := range []Node{-1, 0, 2, 10} {
		if IndexOf(nodes, v) != -1 {
			t.Errorf("IndexOf(%d) = %d, want -1", v, IndexOf(nodes, v))
		}
	}
	if IndexOf(nil, 0) != -1 {
		t.Error("IndexOf on an empty list")
	}
}

// Package graph provides the network topologies the coding schemes run
// over: connected simple undirected graphs G = (V, E) where every node is a
// party and every edge is a bidirectional communication link (paper,
// Section 2.1).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Node identifies a party; nodes are numbered 0..n-1.
type Node int

// Edge is an undirected link between two parties, stored with U < V.
type Edge struct {
	U, V Node
}

// Canonical returns the edge with endpoints ordered so that U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Graph is a connected simple undirected graph. Build one with New and
// AddEdge, then call Validate (or use a generator from this package).
//
// Every edge has an ID, its position in insertion order, and every
// directed link (from, to) a link index 2·ID + (from > to): dense
// positions the simulation indexes its per-link state by.
type Graph struct {
	n     int
	adj   [][]Node // adj[v] is N(v), kept ascending
	eid   [][]int  // eid[v][i] is the ID of the edge (v, adj[v][i])
	edges []Edge   // by edge ID
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	return &Graph{
		n:   n,
		adj: make([][]Node, n),
		eid: make([][]int, n),
	}
}

// N returns the number of parties.
func (g *Graph) N() int { return g.n }

// M returns the number of links.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected link (u, v). Self-loops and duplicates are
// rejected.
func (g *Graph) AddEdge(u, v Node) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if u < 0 || int(u) >= g.n || v < 0 || int(v) >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	e := Edge{U: u, V: v}.Canonical()
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", e.U, e.V)
	}
	id := len(g.edges)
	g.edges = append(g.edges, e)
	g.insert(u, v, id)
	g.insert(v, u, id)
	return nil
}

// insert places neighbor w with edge ID id into v's sorted adjacency.
// Generators add neighbors in ascending order, so this is an append.
func (g *Graph) insert(v, w Node, id int) {
	i := sort.Search(len(g.adj[v]), func(i int) bool { return g.adj[v][i] > w })
	g.adj[v] = append(g.adj[v], 0)
	copy(g.adj[v][i+1:], g.adj[v][i:])
	g.adj[v][i] = w
	g.eid[v] = append(g.eid[v], 0)
	copy(g.eid[v][i+1:], g.eid[v][i:])
	g.eid[v][i] = id
}

// IndexOf returns the position of v in the ascending slice nodes, or -1
// if v is absent. With nodes = g.Neighbors(u) it is the port of v at u.
func IndexOf(nodes []Node, v Node) int {
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i] >= v })
	if i < len(nodes) && nodes[i] == v {
		return i
	}
	return -1
}

// EdgeIndex returns the ID of the edge (u, v) in [0, M()), or -1 if u
// and v are not adjacent or either is out of range.
func (g *Graph) EdgeIndex(u, v Node) int {
	if u < 0 || int(u) >= g.n {
		return -1
	}
	i := IndexOf(g.adj[u], v)
	if i < 0 {
		return -1
	}
	return g.eid[u][i]
}

// LinkIndex returns the index of the directed link from → to in
// [0, 2·M()): 2·EdgeIndex(from, to), plus one when from > to. It returns
// -1 for a non-edge or an out-of-range node.
func (g *Graph) LinkIndex(from, to Node) int {
	e := g.EdgeIndex(from, to)
	if e < 0 {
		return -1
	}
	if from > to {
		return 2*e + 1
	}
	return 2 * e
}

// HasEdge reports whether (u, v) is a link.
func (g *Graph) HasEdge(u, v Node) bool { return g.EdgeIndex(u, v) >= 0 }

// Neighbors returns the neighborhood N(v) in ascending order. The returned
// slice is owned by the graph; callers must not modify it.
func (g *Graph) Neighbors(v Node) []Node {
	return g.adj[v]
}

// Degree returns |N(v)|.
func (g *Graph) Degree(v Node) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree over all nodes.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Edges returns all links with U < V, sorted lexicographically. The slice
// is a copy and safe to modify.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Validate checks the graph is non-empty, simple and connected.
func (g *Graph) Validate() error {
	if g.n == 0 {
		return errors.New("graph: no nodes")
	}
	if g.n == 1 {
		return nil
	}
	visited := g.bfsOrder(0)
	if len(visited) != g.n {
		return fmt.Errorf("graph: not connected (%d of %d nodes reachable)", len(visited), g.n)
	}
	return nil
}

// bfsOrder returns nodes in BFS order from root.
func (g *Graph) bfsOrder(root Node) []Node {
	seen := make([]bool, g.n)
	queue := []Node{root}
	seen[root] = true
	var order []Node
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, w := range g.adj[u] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// Diameter returns the graph diameter via BFS from every node. Intended
// for the moderate sizes used in simulation.
func (g *Graph) Diameter() int {
	d := 0
	for v := 0; v < g.n; v++ {
		dist := g.bfsDist(Node(v))
		for _, x := range dist {
			if x > d {
				d = x
			}
		}
	}
	return d
}

func (g *Graph) bfsDist(root Node) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue := []Node{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

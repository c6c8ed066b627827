package graph

import (
	"fmt"
	"math/rand"

	"mpic/internal/detrand"
)

// Line returns the path topology 0-1-2-...-n-1, the paper's running
// example (Section 1.2).
func Line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(g, Node(i), Node(i+1))
	}
	mustValidate(g)
	return g
}

// Ring returns the cycle topology on n >= 3 nodes.
func Ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		mustAdd(g, Node(i), Node((i+1)%n))
	}
	mustValidate(g)
	return g
}

// Star returns the star topology with node 0 as center (the JKL15 setting).
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		mustAdd(g, 0, Node(i))
	}
	mustValidate(g)
	return g
}

// Clique returns the complete graph on n nodes (the ABE+16 setting).
func Clique(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mustAdd(g, Node(i), Node(j))
		}
	}
	mustValidate(g)
	return g
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) Node { return Node(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustAdd(g, id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				mustAdd(g, id(r, c), id(r+1, c))
			}
		}
	}
	mustValidate(g)
	return g
}

// BalancedTree returns the complete arity-ary tree on n nodes, numbered in
// BFS order from the root 0.
func BalancedTree(n, arity int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		parent := (i - 1) / arity
		mustAdd(g, Node(parent), Node(i))
	}
	mustValidate(g)
	return g
}

// RandomConnected returns a random connected graph: a uniform random
// spanning tree (random attachment) plus extra uniformly random non-tree
// edges. Deterministic for a given rng state.
func RandomConnected(n, extraEdges int, rng *rand.Rand) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// Attach perm[i] to a uniformly random earlier node: random tree.
		j := rng.Intn(i)
		mustAdd(g, Node(perm[i]), Node(perm[j]))
	}
	maxExtra := n*(n-1)/2 - (n - 1)
	if extraEdges > maxExtra {
		extraEdges = maxExtra
	}
	for added := 0; added < extraEdges; {
		u := Node(rng.Intn(n))
		v := Node(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		mustAdd(g, u, v)
		added++
	}
	mustValidate(g)
	return g
}

// ByName builds one of the named topology families used by the experiment
// harness: "line", "ring", "star", "clique", "tree" (binary), or
// "random" (tree + n/2 extra edges, seeded from size).
func ByName(name string, n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: topology %q needs n >= 1, got %d", name, n)
	}
	switch name {
	case "line":
		return Line(n), nil
	case "ring":
		if n < 3 {
			return nil, fmt.Errorf("graph: ring needs n >= 3, got %d", n)
		}
		return Ring(n), nil
	case "star":
		return Star(n), nil
	case "clique":
		return Clique(n), nil
	case "tree":
		return BalancedTree(n, 2), nil
	case "random":
		rng := detrand.GetRand(int64(n) * 7919)
		defer detrand.PutRand(rng)
		return RandomConnected(n, n/2, rng), nil
	default:
		return nil, fmt.Errorf("graph: unknown topology %q", name)
	}
}

func mustAdd(g *Graph, u, v Node) {
	if err := g.AddEdge(u, v); err != nil {
		// Generators control their inputs; a failure here is a programming
		// error in this package.
		panic(err)
	}
}

func mustValidate(g *Graph) {
	if err := g.Validate(); err != nil {
		panic(err)
	}
}

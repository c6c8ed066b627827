package graph

// SpanningTree is a BFS spanning tree rooted at Root, used by the
// flag-passing phase (paper, Algorithm 3). Levels follow the paper's
// convention: ℓ(root) = 1 and ℓ(v) = ℓ(parent(v)) + 1; the depth d(T) is
// the maximum level.
type SpanningTree struct {
	Root     Node
	Parent   []Node   // Parent[v] is v's parent; Parent[Root] = Root
	Children [][]Node // Children[v] in ascending order
	Level    []int    // Level[v] = ℓ(v), 1-based
	Depth    int      // d(T) = max level
}

// BFSTree builds the breadth-first spanning tree from root. The graph must
// be validated (connected) first.
func (g *Graph) BFSTree(root Node) *SpanningTree {
	t := &SpanningTree{
		Root:     root,
		Parent:   make([]Node, g.n),
		Children: make([][]Node, g.n),
		Level:    make([]int, g.n),
	}
	t.Parent[root] = root
	t.Level[root] = 1
	t.Depth = 1
	queue := []Node{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if t.Level[w] == 0 && w != root {
				t.Level[w] = t.Level[u] + 1
				t.Parent[w] = u
				t.Children[u] = append(t.Children[u], w)
				if t.Level[w] > t.Depth {
					t.Depth = t.Level[w]
				}
				queue = append(queue, w)
			}
		}
	}
	return t
}

// IsLeaf reports whether v has no children in the tree.
func (t *SpanningTree) IsLeaf(v Node) bool { return len(t.Children[v]) == 0 }

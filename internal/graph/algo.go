package graph

// Traversal and connectivity algorithms. All are iterative BFS/DFS over the
// adjacency lists; no recursion, so arbitrarily large instances are safe.

// BFS runs a breadth-first search from src and returns the distance (in
// hops) to every node; unreachable nodes get -1.
func (g *Graph) BFS(src NodeID) []int {
	g.check(src)
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, len(g.adj))
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// ShortestPath returns one shortest path from src to dst as a node
// sequence including both endpoints, or nil if dst is unreachable.
func (g *Graph) ShortestPath(src, dst NodeID) []NodeID {
	g.check(src)
	g.check(dst)
	if src == dst {
		return []NodeID{src}
	}
	prev := make([]NodeID, len(g.adj))
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if prev[u] != -1 {
				continue
			}
			prev[u] = v
			if u == dst {
				// reconstruct
				path := []NodeID{dst}
				for at := dst; at != src; {
					at = prev[at]
					path = append(path, at)
				}
				// reverse
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, u)
		}
	}
	return nil
}

// ConnectedComponents returns a component label for each node (labels are
// dense, starting at 0) and the number of components.
func (g *Graph) ConnectedComponents() (label []int, count int) {
	label = make([]int, len(g.adj))
	for i := range label {
		label[i] = -1
	}
	var queue []NodeID
	for start := range g.adj {
		if label[start] != -1 {
			continue
		}
		label[start] = count
		queue = append(queue[:0], NodeID(start))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.adj[v] {
				if label[u] == -1 {
					label[u] = count
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return label, count
}

// IsConnected reports whether g is connected. The empty graph is
// considered connected; a single node is connected.
func (g *Graph) IsConnected() bool {
	if len(g.adj) == 0 {
		return true
	}
	_, count := g.ConnectedComponents()
	return count == 1
}

// ComponentOf returns the node set of the connected component containing v.
func (g *Graph) ComponentOf(v NodeID) []NodeID {
	g.check(v)
	seen := make([]bool, len(g.adj))
	seen[v] = true
	out := []NodeID{v}
	queue := []NodeID{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[x] {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
				queue = append(queue, u)
			}
		}
	}
	return out
}

// InducedSubgraphConnected reports whether the subgraph induced by the
// nodes where inSet[v] is true is connected. An empty or singleton set is
// connected. This is the check for Property 2 (the marked set G' = G[V']
// is connected) without materializing the induced subgraph.
func (g *Graph) InducedSubgraphConnected(inSet []bool) bool {
	if len(inSet) != len(g.adj) {
		panic("graph: inSet length mismatch")
	}
	var start NodeID = -1
	total := 0
	for v, in := range inSet {
		if in {
			total++
			if start == -1 {
				start = NodeID(v)
			}
		}
	}
	if total <= 1 {
		return true
	}
	seen := make([]bool, len(g.adj))
	seen[start] = true
	reached := 1
	queue := []NodeID{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if inSet[u] && !seen[u] {
				seen[u] = true
				reached++
				queue = append(queue, u)
			}
		}
	}
	return reached == total
}

// IsDominatingSet reports whether every node is either in the set or
// adjacent to a node in the set (Property 1).
func (g *Graph) IsDominatingSet(inSet []bool) bool {
	if len(inSet) != len(g.adj) {
		panic("graph: inSet length mismatch")
	}
	for v := range g.adj {
		if inSet[v] {
			continue
		}
		dominated := false
		for _, u := range g.adj[v] {
			if inSet[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// InducedSubgraph materializes the subgraph induced by the given node set.
// It returns the new graph and a mapping from new node ids to original ids.
func (g *Graph) InducedSubgraph(inSet []bool) (*Graph, []NodeID) {
	if len(inSet) != len(g.adj) {
		panic("graph: inSet length mismatch")
	}
	toNew := make([]NodeID, len(g.adj))
	var toOld []NodeID
	for v, in := range inSet {
		if in {
			toNew[v] = NodeID(len(toOld))
			toOld = append(toOld, NodeID(v))
		} else {
			toNew[v] = -1
		}
	}
	sub := New(len(toOld))
	for _, v := range toOld {
		for _, u := range g.adj[v] {
			if u > v && inSet[u] {
				sub.AddEdge(toNew[v], toNew[u])
			}
		}
	}
	return sub, toOld
}

// BFSWithin runs BFS from src restricted to nodes where allowed[v] is true.
// src must itself be allowed. Returns hop distances (-1 if unreachable
// within the allowed set).
func (g *Graph) BFSWithin(src NodeID, allowed []bool) []int {
	g.check(src)
	if len(allowed) != len(g.adj) {
		panic("graph: allowed length mismatch")
	}
	if !allowed[src] {
		panic("graph: BFSWithin source not in allowed set")
	}
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if allowed[u] && dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum BFS distance from v to any reachable
// node.
func (g *Graph) Eccentricity(v NodeID) int {
	g.check(v)
	return g.eccentricity(v, make([]int32, len(g.adj)), make([]NodeID, len(g.adj)))
}

// Diameter returns the longest shortest path between any pair of nodes in
// the same component. O(V * E); intended for analysis, not hot paths.
// Every BFS runs on one dist/queue pair, so a call makes two allocations
// whatever the node count.
func (g *Graph) Diameter() int {
	dist, queue := make([]int32, len(g.adj)), make([]NodeID, len(g.adj))
	max := 0
	for v := range g.adj {
		if e := g.eccentricity(NodeID(v), dist, queue); e > max {
			max = e
		}
	}
	return max
}

// eccentricity is Eccentricity on caller-owned storage: dist and queue
// hold one slot per node, and their contents on entry do not matter.
func (g *Graph) eccentricity(src NodeID, dist []int32, queue []NodeID) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = src
	head, tail := 0, 1
	for head < tail {
		v := queue[head]
		head++
		for _, u := range g.adj[v] {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue[tail] = u
				tail++
			}
		}
	}
	// BFS visits nodes in order of distance: the last one queued is the
	// farthest.
	return int(dist[queue[tail-1]])
}

"""The all-pairs diameter that the linear-time one replaced, kept as a test oracle.

This is the earlier unilap.graphs.diameter_and_path, unchanged apart from
a BFS of its own: it keeps the distances of all n^2 vertex pairs and takes
the smallest pair at the largest distance. It shares no search logic with
the code it checks, neither the diameter's ends read off the fold on a
tree or a unicyclic graph nor the one BFS per source (graphs.bfs_distances)
on any other graph.
"""

from collections import deque

from unilap.errors import NotConnectedError
from unilap.graphs import Graph


def _distances(g: Graph, src: int) -> list[int]:
    dist = [-1] * g.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for w in g.adj[x]:
            if dist[w] < 0:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def diameter_and_path(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact diameter and one diametral path, deterministically chosen.

    Ties break to the lexicographically smallest endpoint pair (u, v) with
    u < v, then to the lexicographically smallest vertex sequence from u.
    """
    dist = [_distances(g, u) for u in range(g.n)]
    if min(dist[0]) < 0:
        raise NotConnectedError("diameter of a disconnected graph is undefined")
    if g.n == 1:
        return 0, (0,)
    d = max(max(row) for row in dist)
    u, v = min(
        (a, b) for a in range(g.n) for b in range(a + 1, g.n) if dist[a][b] == d
    )
    path = [u]
    cur = u
    while cur != v:
        cur = min(w for w in g.adj[cur] if dist[v][w] == dist[v][cur] - 1)
        path.append(cur)
    return d, tuple(path)

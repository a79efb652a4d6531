"""The all-pairs diameter that the linear-time one replaced, kept as a test oracle.

This is the earlier unilap.graphs.diameter_and_path, unchanged: it keeps the
BFS distances of all n^2 vertex pairs and takes the smallest pair at the
largest distance, so it shares no search logic with the code it checks.
"""

from unilap.errors import NotConnectedError
from unilap.graphs import Graph, bfs_distances


def diameter_and_path(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact diameter and one diametral path, deterministically chosen.

    Ties break to the lexicographically smallest endpoint pair (u, v) with
    u < v, then to the lexicographically smallest vertex sequence from u.
    """
    if not g.is_connected():
        raise NotConnectedError("diameter of a disconnected graph is undefined")
    if g.n == 1:
        return 0, (0,)
    dist = [bfs_distances(g, u) for u in range(g.n)]
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

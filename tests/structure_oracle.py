"""The cycle decomposition and core reduction that the shared forest replaced.

This is the earlier unilap.graphs structure code, unchanged apart from
names: the cycle is found by leaf stripping with a removed list and set
lookups, every pendant tree is collected by its own BFS over sets, the
eccentricities root the trees by a BFS of their own, tails are recognised
by walking each tree, and the connector to the cycle comes from a
multi-source BFS. unilap.graphs now reads all of these off one cycle-rooted
forest, so the two share only the final path walk; the sliding windows
round the cycle come from cycle_walks, the code that read them before.

path_from_eccentricities is how unilap.graphs took the diametral path from
its eccentricities before it read distances and the path off the forest:
one BFS from u to find v and another, inside _walk_to, to walk back.
"""

from collections import deque
from typing import NamedTuple

from cycle_walks import _farthest_clockwise
from unilap.errors import NotConnectedError, NotUnicyclicError
from unilap.graphs import (
    Graph,
    _walk_to,
    bfs_distances,
)


def decompose(g: Graph) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """The cycle and the sorted pendant tree at each cycle vertex."""
    if not g.is_connected():
        raise NotConnectedError("graph is not connected")
    if g.m != g.n:
        raise NotUnicyclicError(f"unicyclic graph needs |E| = n, got {g.m} != {g.n}")
    deg = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    queue = deque(v for v in range(g.n) if deg[v] == 1)
    while queue:
        v = queue.popleft()
        removed[v] = True
        for w in g.adj[v]:
            if not removed[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    cycle_set = {v for v in range(g.n) if not removed[v]}

    start = min(cycle_set)
    ordered = [start]
    prev = -1
    while True:
        nxt = min(w for w in g.adj[ordered[-1]] if w in cycle_set and w != prev)
        if nxt == start:
            break
        prev = ordered[-1]
        ordered.append(nxt)

    trees: dict[int, tuple[int, ...]] = {}
    seen = set(cycle_set)
    for root in ordered:
        bucket = []
        queue = deque(w for w in g.adj[root] if w not in seen)
        seen.update(queue)
        while queue:
            v = queue.popleft()
            bucket.append(v)
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        trees[root] = tuple(sorted(bucket))
    return tuple(ordered), trees


def eccentricities(g: Graph, cycle: tuple[int, ...]) -> list[int]:
    """Eccentricity of every vertex, from tree heights and cycle windows."""
    r = len(cycle)
    parent = [-1] * g.n
    for c in cycle:
        parent[c] = c
    order = list(cycle)  # BFS order outward from the cycle, parents first
    for x in order:
        for w in g.adj[x]:
            if parent[w] < 0:
                parent[w] = x
                order.append(w)
    down = [0] * g.n
    second = [0] * g.n  # runner-up over the children of x of 1 + down[child]
    for x in reversed(order[r:]):
        p, h = parent[x], down[x] + 1
        if h > down[p]:
            down[p], second[p] = h, down[p]
        elif h > second[p]:
            second[p] = h
    heights = [down[c] for c in cycle]
    cw = _farthest_clockwise(heights)
    ccw = _farthest_clockwise(heights[::-1])[::-1]
    up = [0] * g.n
    for c, a, b in zip(cycle, cw, ccw):
        up[c] = max(a, b)
    for x in order[r:]:
        p = parent[x]
        sibling = second[p] if down[x] + 1 == down[p] else down[p]
        up[x] = 1 + max(up[p], sibling)
    return [max(a, b) for a, b in zip(down, up)]


def path_from_eccentricities(g: Graph, ecc: list[int]) -> tuple[int, tuple[int, ...]]:
    """The diameter, the smallest pair at it and the smallest path between
    them, given every eccentricity of g."""
    d = max(ecc)
    u = ecc.index(d)
    v = bfs_distances(g, u).index(d)
    return d, _walk_to(g, u, v)


def diameter_and_path(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The smallest pair at the diameter and the smallest path between them."""
    return path_from_eccentricities(g, eccentricities(g, decompose(g)[0]))


def _tail_is_path(g: Graph, root: int, tree: set[int]) -> int | None:
    """Length of the tree at root if it is a path hanging off root, else None."""
    if not tree:
        return 0
    first = [w for w in g.adj[root] if w in tree]
    if len(first) != 1:
        return None
    count = 1
    prev, cur = root, first[0]
    while True:
        nxt = [w for w in g.adj[cur] if w in tree and w != prev]
        if not nxt:
            break
        if len(nxt) > 1:
            return None
        prev, cur = cur, nxt[0]
        count += 1
    return count if count == len(tree) else None


def classify(
    core: Graph, cycle: tuple[int, ...], trees: dict[int, tuple[int, ...]]
) -> tuple[str, tuple[int, ...]]:
    r = len(cycle)
    slots = [(pos, set(trees[v])) for pos, v in enumerate(cycle) if trees[v]]
    if not slots:
        return "cycle", (core.n,)
    lengths = []
    for pos, tree in slots:
        ln = _tail_is_path(core, cycle[pos], tree)
        if ln is None:
            return "other", ()
        lengths.append(ln)
    if len(slots) == 1:
        return "lollipop", (core.n, r)
    if len(slots) == 2:
        arc = abs(slots[0][0] - slots[1][0])
        r_prime = min(arc, r - arc)
        t = min(lengths)
        return "compass", (core.n, r, r_prime, t)
    return "other", ()


class EagerCore(NamedTuple):
    """The fields of graphs.CoreClassification, with the core built at once."""

    kind: str
    params: tuple[int, ...]
    core: Graph
    core_vertices: tuple[int, ...]
    diametral_path: tuple[int, ...]


def reduce_to_core(g: Graph) -> EagerCore:
    """Cycle plus diametral path plus (if needed) a shortest connector."""
    cycle, trees = decompose(g)
    _, path = diameter_and_path(g)
    cycle_set = set(cycle)
    keep = set(path) | cycle_set
    edge_set = set()
    for i in range(len(cycle)):
        a, b = cycle[i], cycle[(i + 1) % len(cycle)]
        edge_set.add((min(a, b), max(a, b)))
    for a, b in zip(path, path[1:]):
        edge_set.add((min(a, b), max(a, b)))

    if cycle_set.isdisjoint(path):
        # connect the path to the cycle by the unique shortest tree walk
        dist = [-1] * g.n
        parent = [-1] * g.n
        queue = deque()
        for v in sorted(cycle_set):
            dist[v] = 0
            queue.append(v)
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
        x = min(set(path), key=lambda v: (dist[v], v))
        while x not in cycle_set:
            keep.add(x)
            edge_set.add((min(x, parent[x]), max(x, parent[x])))
            x = parent[x]

    verts = sorted(keep)
    relabel = {v: i for i, v in enumerate(verts)}
    core = Graph.from_edges(len(verts), [(relabel[a], relabel[b]) for a, b in edge_set])
    core_cycle = tuple(relabel[c] for c in cycle)
    core_trees = {
        relabel[c]: tuple(relabel[v] for v in trees[c] if v in keep) for c in cycle
    }
    kind, params = classify(core, core_cycle, core_trees)
    return EagerCore(kind, params, core, tuple(verts), path)

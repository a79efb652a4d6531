"""The cycle decomposition and core reduction that the shared forest replaced.

This is the earlier unilap.graphs structure code, unchanged apart from
names: the cycle is found by leaf stripping with a removed list and set
lookups, every pendant tree is collected by its own BFS over sets, the
eccentricities root the trees by a BFS of their own and reach round the
cycle by two deque windows (_farthest_clockwise), tails are recognised by
walking each tree, and the connector to the cycle comes from a
multi-source BFS. path_from_eccentricities takes the diametral path from
the eccentricities by two BFS: one from u to find v and another, inside
_walk_to, to walk back. classify_by_degrees and classify_rebuilt are how
the core was classified before it was read off the diameter's ends: the
core rebuilt by Graph.from_edges from its cycle and parent edges, then
classified from its own degrees.

Independence: unilap.graphs reads all of this off one cycle-rooted leaf
strip, the fold's heights and deepest labels, and the max-plus reach of
_cycle_reach, none of which runs here; classify_rebuilt is only handed
the strip's parent list, which decompose's own trees check. On a tree or
a unicyclic graph unilap.graphs runs neither bfs_distances nor _walk_to,
the only code this module imports from it besides Graph.
"""

from collections import deque
from typing import NamedTuple

from unilap.errors import NotConnectedError, NotUnicyclicError
from unilap.graphs import (
    Graph,
    _walk_to,
    bfs_distances,
)


def _farthest_clockwise(h: list[int]) -> list[int]:
    """max over 1 <= j <= len(h)//2 of h[(i + j) % len(h)] + j, for every i.

    Writing a[J] = h[J % r] + J over the doubled cycle, the value at i is
    max(a[i+1 .. i+k]) - i: a window of fixed width k sliding right, whose
    maximum a deque of decreasing a-values yields in O(r) overall.
    """
    r = len(h)
    k = r // 2
    a = [h[j % r] + j for j in range(r + k)]
    window: deque[int] = deque()
    out = []
    for j in range(1, r + k):
        while window and a[window[-1]] <= a[j]:
            window.pop()
        window.append(j)
        i = j - k
        if i >= 0:
            if window[0] <= i:
                window.popleft()
            out.append(a[window[0]] - i)
    return out


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


def classify_by_degrees(
    core: Graph, cycle: list[int], path: tuple[int, ...]
) -> tuple[str, tuple[int, ...]]:
    """Kind and parameters of a unicyclic core from its degrees, its cycle
    and its diametral path, in the core's labels."""
    branch = [v for v, nbrs in enumerate(core.adj) if len(nbrs) > 2]
    if not branch:
        return "cycle", (core.n,)
    on_cycle = set(cycle)
    if len(branch) > 2 or any(len(core.adj[v]) > 3 or v not in on_cycle for v in branch):
        return "other", ()
    if len(branch) == 1:
        return "lollipop", (core.n, len(cycle))
    ends = [i for i, v in enumerate(path) if v in on_cycle]
    first, last = ends[0], ends[-1]
    return "compass", (core.n, len(cycle), last - first, min(first, len(path) - 1 - last))


def classify_rebuilt(
    g: Graph, forest: tuple, path: tuple[int, ...]
) -> tuple[str, tuple[int, ...], Graph, tuple[int, ...]]:
    """(kind, params, core, core_vertices): the core rebuilt from its cycle
    and parent edges by Graph.from_edges, then classified from its degrees."""
    _, parent, (cycle,) = forest
    keep = set(path).union(cycle)
    x = path[0]
    while parent[x] != x:
        x = parent[x]
        keep.add(x)
    if len(keep) == g.n:
        return (*classify_by_degrees(g, cycle, path), g, tuple(range(g.n)))
    verts = sorted(keep)
    relabel = {v: i for i, v in enumerate(verts)}
    core_cycle = [relabel[c] for c in cycle]
    edges = [(i, relabel[parent[v]]) for i, v in enumerate(verts) if parent[v] != v]
    edges += zip(core_cycle, core_cycle[1:] + core_cycle[:1])
    core = Graph.from_edges(len(verts), edges)
    kind, params = classify_by_degrees(core, core_cycle, tuple(relabel[v] for v in path))
    return kind, params, core, tuple(verts)

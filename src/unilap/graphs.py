"""Simple undirected graphs, unicyclic family generators, and core reduction.

Vertices are the integers 0..n-1. A graph is stored as a tuple of sorted
neighbor tuples, so values are immutable and safe to share across threads.

Family labeling conventions (fixed so that constructions elsewhere in the
package can address vertices by index):

* path: 0-1-2-...-(n-1).
* cycle: 0-1-...-(n-1)-0; the closing edge is (0, n-1).
* lollipop(n, r): vertices 0..r-1 form the cycle (closing edge (0, r-1));
  the tail is r-1 - r - r+1 - ... - n-1, so the unique degree-3 vertex is
  r-1 and the pendant end is n-1.
* compass(n, r, r', t): indices 0..t-1 are the first tail (pendant end 0),
  t..t+r-1 the cycle (closing edge (t, t+r-1)), and t+r..n-1 the second
  tail hanging from t+r-1. The first tail attaches by the edge
  (t-1, t+r'-1), which puts its attachment point at cycle distance r' from
  the degree-3 vertex t+r-1. Deleting (t-1, t+r'-1) therefore leaves the
  disjoint union of a t-path and a lollipop on n-t vertices.

The generators and with_edge_removed write their sorted neighbour tuples
straight into Graph._trusted: they are valid by construction, and edge
removal edits only the two tuples it touches. Graph.from_edges, and
read_edge_list through it, validate input from outside edge by edge.
"""

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import TextIO

from .errors import (
    EdgeNotPresentError,
    InvalidParameterError,
    NotConnectedError,
    NotUnicyclicError,
)
from .linalg import _close_cycle


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        """Reject adjacency that is not a simple undirected graph, in O(n + m).

        n and each id must be an int, not a bool. Each list must be strictly
        increasing, in range and loop-free, and w must list v exactly when v
        lists w. Visiting v in increasing order, the lists naming w are met
        in the order of w's own sorted list, so one cursor per vertex checks
        symmetry. adj is stored as tuples first: a caller's lists would leave
        the graph unhashable and open to edits.
        """
        n, adj = self.n, tuple(map(tuple, self.adj))
        object.__setattr__(self, "adj", adj)
        if type(n) is not int or n < 1:
            raise InvalidParameterError(f"graph needs an int n >= 1, got n={n!r}")
        if len(adj) != n:
            raise InvalidParameterError(f"need {n} adjacency lists, got {len(adj)}")
        cursor = [0] * n
        for v, nbrs in enumerate(adj):
            prev = -1
            for w in nbrs:
                if type(w) is not int or not prev < w < n or w == v:
                    raise InvalidParameterError(
                        f"adjacency of vertex {v} must be sorted, int, in range, loop-free: {nbrs}"
                    )
                prev = w
                k = cursor[w]
                if k >= len(adj[w]) or adj[w][k] != v:
                    raise InvalidParameterError(f"adjacency lists of {v} and {w} disagree")
                cursor[w] = k + 1
        for w in range(n):
            if cursor[w] != len(adj[w]):
                raise InvalidParameterError(
                    f"adjacency lists of {w} and {adj[w][cursor[w]]} disagree"
                )

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if type(n) is not int or n < 1:
            raise InvalidParameterError(f"graph needs an int n >= 1, got n={n!r}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u!r},{v!r}) needs int ends in 0..{n - 1}")
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            if v in nbrs[u]:
                raise InvalidParameterError(f"duplicate edge ({u},{v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        # the edges were checked one by one and the lists are built sorted and
        # symmetric, so __post_init__'s second O(n + m) pass is skipped
        return Graph._trusted(n, tuple(tuple(sorted(s)) for s in nbrs))

    @staticmethod
    def _trusted(n: int, adj: tuple[tuple[int, ...], ...]) -> "Graph":
        """A Graph on adjacency its caller built valid, without __post_init__."""
        g = object.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @property
    def m(self) -> int:
        """Edge count."""
        return sum(map(len, self.adj)) // 2

    def degree(self, v: int) -> int:
        if type(v) is not int or not 0 <= v < self.n:
            raise InvalidParameterError(f"vertex {v!r} needs to be an int in 0..{self.n - 1}")
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is an edge; u and v must be int ids in range, as in
        the edge edits, which check their ends here."""
        if not (type(u) is int and type(v) is int and 0 <= u < self.n and 0 <= v < self.n):
            raise InvalidParameterError(f"edge ({u!r},{v!r}) needs int ends in 0..{self.n - 1}")
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def is_connected(self) -> bool:
        return -1 not in bfs_distances(self, 0)

    def with_edge_removed(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise EdgeNotPresentError(f"edge ({u},{v}) not in graph")
        adj = list(self.adj)
        adj[u] = tuple(w for w in adj[u] if w != v)
        adj[v] = tuple(w for w in adj[v] if w != u)
        return Graph._trusted(self.n, tuple(adj))

    def with_edge_added(self, u: int, v: int) -> "Graph":
        if u == v or self.has_edge(u, v):
            raise InvalidParameterError(f"cannot add edge ({u},{v})")
        return Graph.from_edges(self.n, self.edges() + [(u, v)])

    def without_vertex(self, v: int) -> "Graph":
        """Delete vertex v; remaining vertices are reindexed preserving order."""
        if self.n <= 1:
            raise InvalidParameterError("cannot delete the last vertex")
        if type(v) is not int or not 0 <= v < self.n:
            raise InvalidParameterError(f"vertex {v!r} needs to be an int in 0..{self.n - 1}")
        relabel = {u: (u if u < v else u - 1) for u in range(self.n) if u != v}
        edges = [(relabel[a], relabel[b]) for a, b in self.edges() if v not in (a, b)]
        return Graph.from_edges(self.n - 1, edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """g1 followed by g2 with g2's labels shifted by g1.n."""
    edges = g1.edges() + [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    return Graph.from_edges(g1.n + g2.n, edges)


def join_with_edge(g1: Graph, u: int, g2: Graph, v: int) -> Graph:
    """Disjoint union of g1 and g2 plus the bridge (u, g1.n + v)."""
    if not (type(u) is int and type(v) is int and 0 <= u < g1.n and 0 <= v < g2.n):
        raise InvalidParameterError(
            f"bridge ({u!r},{v!r}) needs int ends in range for n={g1.n} and n={g2.n}"
        )
    return disjoint_union(g1, g2).with_edge_added(u, g1.n + v)


def pendant_vertices(g: Graph) -> list[int]:
    return [v for v, nbrs in enumerate(g.adj) if len(nbrs) == 1]


# ---------------------------------------------------------------------------
# family generators


def _path_adj(n: int) -> list[tuple[int, ...]]:
    """Neighbour tuples of the path 0-1-...-(n-1), n >= 1."""
    adj = [(i - 1, i + 1) for i in range(n)]
    adj[0] = adj[0][1:]
    adj[-1] = adj[-1][:-1]
    return adj


def make_path(n: int) -> Graph:
    if type(n) is not int or n < 1:
        raise InvalidParameterError(f"path needs an int n >= 1, got {n!r}")
    return Graph._trusted(n, tuple(_path_adj(n)))


def make_cycle(n: int) -> Graph:
    if type(n) is not int or n < 3:
        raise InvalidParameterError(f"cycle needs an int n >= 3, got {n!r}")
    return make_lollipop(n, n)


def make_lollipop(n: int, r: int) -> Graph:
    """Cycle of length r with a path of n - r extra vertices hanging from r-1.

    r = n is allowed and degenerates to the plain cycle.
    """
    if type(n) is not int or type(r) is not int or not 3 <= r <= n:
        raise InvalidParameterError(f"lollipop needs ints 3 <= r <= n, got n={n!r} r={r!r}")
    adj = _path_adj(n)  # plus the closing edge (0, r-1)
    adj[0] = (1, r - 1)
    adj[r - 1] = (0,) + adj[r - 1]
    return Graph._trusted(n, tuple(adj))


@dataclass(frozen=True)
class CompassParams:
    """Parameters of a cycle with two tails at cycle distance r_prime.

    s = n - r - t is the second tail length and d = r_prime + t + s the
    diameter. Validity requires r_prime + min(t, s) >= floor(r/2): otherwise
    the walk from tail end to tail end is not a diametral path (a cycle
    vertex opposite the attachment points would be farther out) and the
    stated diameter formula fails.
    """

    n: int
    r: int
    r_prime: int
    t: int

    @property
    def s(self) -> int:
        return self.n - self.r - self.t

    @property
    def d(self) -> int:
        return self.r_prime + self.t + self.s

    def validate(self) -> None:
        if not (type(self.n) is int and type(self.r) is int
                and type(self.r_prime) is int and type(self.t) is int):
            raise InvalidParameterError(f"compass needs int parameters, got {self}")
        if not 3 <= self.r <= self.n - 2:
            raise InvalidParameterError(f"compass needs 3 <= r <= n-2, got {self}")
        if not 1 <= self.r_prime <= self.r // 2:
            raise InvalidParameterError(f"compass needs 1 <= r' <= r/2, got {self}")
        if self.t < 1 or self.s < 1:
            raise InvalidParameterError(f"compass needs both tails nonempty, got {self}")
        if self.r_prime + min(self.t, self.s) < self.r // 2:
            raise InvalidParameterError(
                f"compass tails too short to be diametral: {self}"
            )


def make_compass(p: CompassParams) -> Graph:
    p.validate()
    t = p.t
    a, b = t + p.r_prime - 1, t + p.r - 1  # the first tail's attachment, the degree-3 end
    # the path 0..n-1 plus the closing edge (t, b), with the path edge
    # (t-1, t) moved to the attachment (t-1, a); a <= b - 2 as r' <= r/2
    adj = _path_adj(p.n)
    adj[b] = (t, b - 1, b + 1)
    if a == t:
        adj[t] = (t - 1, t + 1, b)
    else:
        adj[t - 1] = adj[t - 1][:-1] + (a,)
        adj[t] = (t + 1, b)
        adj[a] = (t - 1, a - 1, a + 1)
    return Graph._trusted(p.n, tuple(adj))


# ---------------------------------------------------------------------------
# structure


@dataclass
class UnicyclicDecomposition:
    """The unique cycle and the forest of pendant trees rooted on it.

    cycle starts at its smallest vertex and steps first to the smaller of
    that vertex's two cycle neighbours. parent maps every vertex to its
    neighbour one step nearer the cycle, with parent[c] = c on the cycle, and
    order lists V with the cycle first (in cycle order) and every other vertex
    after its parent. trees maps every cycle vertex to the sorted non-cycle
    vertices of its tree (empty tuple when nothing hangs there); the tree
    vertex sets partition V minus the cycle. Only unicyclic_decompose builds
    this public view; the package itself reads the leaf strip.
    """

    cycle: tuple[int, ...]
    trees: dict[int, tuple[int, ...]]
    order: list[int]
    parent: list[int]

    @property
    def girth(self) -> int:
        return len(self.cycle)


def _cycle_forest(g: Graph) -> tuple | None:
    """The leaf strip of g: (stripped, parent, cycles), or None when the
    2-core of g is not a set of disjoint cycles.

    left[x] counts the neighbours of x not yet stripped and others[x] sums
    them, so a leaf's parent is others[x]. stripped lists each vertex after
    all of its children, and parent[x] is the one neighbour x had left when
    stripped, or x itself on a cycle. A tree's root has no neighbour left
    when reached: it is a one-vertex cycle. Each other cycle is walked by
    others[v] - prev from its smallest vertex, stepping first to the
    smaller neighbour (adjacency lists are sorted).
    """
    adj = g.adj
    left = list(map(len, adj))
    others = list(map(sum, adj))
    parent = list(range(g.n))
    leaves = [v for v, k in enumerate(left) if k < 2]
    stripped, cycles = [], []
    for x in leaves:
        if left[x]:
            stripped.append(x)
            left[x] = 0
            u = parent[x] = others[x]
            others[u] -= x
            left[u] -= 1
            if left[u] == 1:
                leaves.append(u)
        else:
            cycles.append([x])
    if max(left) > 2:
        return None
    start, walked = 0, len(leaves)
    while walked < g.n:
        start = left.index(2, start)  # the smallest vertex not yet walked
        left[start] = 0
        cycle = [start]
        for v in adj[start]:  # a loop, not next() over a generator: that cost about 0.4 us
            if left[v]:
                break
        prev = start
        while v != start:
            left[v] = 0
            cycle.append(v)
            prev, v = v, others[v] - prev
        cycles.append(cycle)
        walked += len(cycle)
    return stripped, parent, cycles


def _connected_strip(g: Graph) -> tuple | None:
    """The leaf strip of g when g is connected with at most one cycle, else
    None: then the strip has exactly one entry in cycles, the cycle or a
    tree's root."""
    forest = _cycle_forest(g)
    return forest if forest and len(forest[2]) == 1 else None


def _unicyclic_strip(g: Graph) -> tuple:
    """The leaf strip of a connected unicyclic g. A disconnected g raises
    NotConnectedError, before any other g, a tree too, NotUnicyclicError."""
    forest = _connected_strip(g)
    if forest is None and not g.is_connected():
        raise NotConnectedError("graph is not connected")
    if forest is None or len(forest[2][0]) == 1:
        raise NotUnicyclicError(f"unicyclic graph needs |E| = n, got {g.m} != {g.n}")
    return forest


def unicyclic_decompose(g: Graph) -> UnicyclicDecomposition:
    """The cycle and pendant-tree forest of g, read off its leaf strip,
    which reversed puts every parent before its children."""
    stripped, parent, (cycle,) = _unicyclic_strip(g)
    order = cycle + stripped[::-1]
    root = parent[:]
    for x in order[len(cycle):]:
        root[x] = root[parent[x]]
    trees: dict[int, list[int]] = {c: [] for c in cycle}
    for v, c in enumerate(root):
        if c != v:
            trees[c].append(v)
    return UnicyclicDecomposition(
        tuple(cycle), {c: tuple(t) for c, t in trees.items()}, order, parent
    )


def girth(g: Graph) -> int:
    return len(_unicyclic_strip(g)[2][0])


def bfs_distances(g: Graph, src: int) -> list[int]:
    dist = [-1] * g.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _cycle_reach(heights: list[int]) -> list[int]:
    """far[i] = max over j != i of heights[j] + cdist(i, j) round a cycle of
    r = len(heights) vertices; [0] when r = 1.

    With k = r // 2, cdist(i, j) is k less the distance from i to the nearer
    antipode of j (j + k, and j + k + 1 too when r is odd), so each tent
    h_j + cdist(i, j) peaks at h_j + k there, and the envelope of all r
    tents is a max-plus distance transform of the peaks: one pass each way
    round the cycle from s = m + k (mod r), where the first highest index m
    peaks, so no chain of steps needs to pass s. Positions are read modulo r
    through Python's negative indices, with no rotated copy: the forward
    pass runs j from m + 1 - r to m - 1 (m + 1 round to m - 1), takes the
    peak at j + k from heights[j] (and heights[j - 1] when r is odd) and
    writes far[j + s - m], as s - m is k or k - r; the backward pass runs
    from s - 1 down to s + 1 - r. The transform counts j = i too, so it
    errs only at an i with h_i > h_j + cdist(i, j) for every j != i. Two
    such i, j would each top the other by cdist(i, j) > 0, and such an i
    tops every other index's own height too (h_i + cdist > h_j + 2 cdist),
    so no tie coexists with it: it is m. The transform gives far[m] as
    max(h_m, the true far[m]), so only when it reads h_m is far[m]
    recomputed, in O(r).
    """
    r, k = len(heights), len(heights) // 2
    top = max(heights)
    m = heights.index(top)
    s = (m + k) % r
    far = [top + k] * r
    odd, shift, run = r % 2, s - m, top + k
    for j in range(m + 1 - r, m):
        x, y = heights[j], heights[j - odd]
        run -= 1
        x = (x if x > y else y) + k
        if x > run:
            run = x
        far[j + shift] = run
    run = top + k
    for p in range(s - 1, s - r, -1):
        run -= 1
        x = far[p]
        if x > run:
            run = x
        else:
            far[p] = run
    if far[m] == top:
        own = 0  # max over j != m of heights[j] + cdist(m, j), each way round
        for x in range(1, k + 1):
            y = heights[m + x - r] + x
            if y > own:
                own = y
        for x in range(1, r - k):
            y = heights[m - x] + x
            if y > own:
                own = y
        far[m] = own
    return far


def _pendant_pass(g: Graph, order: list[int], parent: list[int]) -> tuple:
    """One pass folding each x of order into parent[x], children first:
    (neg, zero) settled, then num, den, paired, a, b, c (a cycle vertex's
    slot state, for linalg._close_cycle and _cycle_gamma) and down, second,
    lo (the heights, for _diameter and _far_ends).

    num[x] / den[x] is the pivot of L - I on x's subtree, and paired[x]
    its zero children, folded by the step of linalg._fold_pivots at qq = 1
    (Jacobs and Trevisan, LAA 2011), inlined. a[x], b[x], c[x] are the
    smallest sets dominating the subtree with x in the set, with x out but
    dominated by a child, and dominating all but x with neither in the set
    (Cockayne, Goodman and Hedetniemi, IPL 1975). down[x] is the subtree's
    height, second[x] the runner-up over x's children of 1 + down[child],
    and lo[x] the least of the subtree's deepest vertices.
    """
    n = g.n
    num = [len(nbrs) - 1 for nbrs in g.adj]
    den = [1] * n
    paired = [0] * n  # zero children
    inf = n + 1  # above every set size, and so is any sum containing it
    a, b, c, down, second = [1] * n, [inf] * n, [0] * n, [0] * n, [0] * n
    lo = list(range(n))
    neg = zero = 0
    # comparisons, not min() or max(): a builtin call per vertex was most of this loop's time
    for x in order:
        u = parent[x]
        if paired[x]:
            neg, zero = neg + 1, zero + paired[x] - 1
        elif num[x]:
            t, s = num[x], den[x]
            neg += (t > 0) is not (s > 0)
            num[u] = num[u] * t - s * den[u]
            den[u] *= t
        else:
            paired[u] += 1
        ax, bx, cx = a[x], b[x], c[x]
        dom = ax if ax < bx else bx
        a[u] += dom if dom < cx else cx
        via_child, via_x = b[u] + dom, c[u] + ax
        b[u] = via_child if via_child < via_x else via_x
        c[u] += bx
        h = down[x] + 1
        if h > down[u]:
            down[u], second[u], lo[u] = h, down[u], lo[x]
        elif h >= second[u]:
            second[u] = h
            if h == down[u] and lo[x] < lo[u]:
                lo[u] = lo[x]
    return neg, zero, num, den, paired, a, b, c, down, second, lo


def _cycle_gamma(cycle: list[int], a: list, b: list, c: list, inf: int) -> int:
    """gamma settled on a cycle from the domination states at its indices,
    with no graph and no pivot: one walk up c_{r-1}..c_0 (the cycle less the
    edge c_{r-1}c_0) with three triples: plain, c_0 in D and c_{r-1} in D,
    each dominating the other end. A tree's root is a one-vertex cycle."""
    # the triples plain (p), c_0 in D (f) and c_{r-1} in D (l), folded as in _pendant_pass
    last = cycle[-1]
    pa, pb, pc = a[last], b[last], c[last]
    fa, fb, fc = pa, pb if pb < pc else pc, inf
    la, lb, lc = pa, inf, inf
    for v in cycle[-2::-1]:
        av, bv, cv = a[v], b[v], c[v]
        dom, via = pa if pa < pb else pb, cv + pa
        pa, pb, pc = av + (dom if dom < pc else pc), via if via < bv + dom else bv + dom, cv + pb
        dom, via = fa if fa < fb else fb, cv + fa
        fa, fb, fc = av + (dom if dom < fc else fc), via if via < bv + dom else bv + dom, cv + fb
        dom, via = la if la < lb else lb, cv + la
        la, lb, lc = av + (dom if dom < lc else lc), via if via < bv + dom else bv + dom, cv + lb
    return min(pa, pb, fa, la, lb, lc)


def _fold_at_one(g: Graph, forest: tuple) -> tuple:
    """(count01, mult1, gamma, d, fold) of a tree or a connected unicyclic g
    from its leaf strip forest: _pendant_pass, then on its one cycle
    linalg._close_cycle (the pivots), _cycle_gamma and _diameter. fold is
    what _far_ends reads besides g, forest and d, so only a caller that
    needs the diameter's ends (_reduce_to_core) pays for them."""
    stripped, parent, (cycle,) = forest
    neg, zero, num, den, paired, a, b, c, down, second, lo = _pendant_pass(g, stripped, parent)
    closed_neg, closed_zero, _ = _close_cycle(cycle, num, den, paired, 1)
    gamma = _cycle_gamma(cycle, a, b, c, g.n + 1)
    d, fold = _diameter(cycle, down, second, lo)
    return neg + closed_neg, zero + closed_zero, gamma, d, fold


def _walk_to(g: Graph, u: int, v: int) -> tuple[int, ...]:
    """The lexicographically smallest shortest path from u to v."""
    dist = bfs_distances(g, v)
    path = [u]
    cur = u
    while cur != v:
        cur = min(w for w in g.adj[cur] if dist[w] == dist[cur] - 1)
        path.append(cur)
    return tuple(path)


def _where(xs: list[int], value: int) -> list[int]:
    """The indices of value in xs, ascending, each found by list.index."""
    found, i = [], -1
    for _ in range(xs.count(value)):
        i = xs.index(value, i + 1)
        found.append(i)
    return found


def _diameter(cycle: list[int], down: list[int], second: list[int], lo: list[int]) -> tuple:
    """(d, fold) of a tree or a connected unicyclic graph from its cycle and
    the heights of its fold, with no eccentricity pass: d is the diameter,
    and fold = (down, second, lo, apex, reach) what _far_ends reads.

    A walk leaving the pendant tree T_i returns through c_i, so two
    vertices of T_i lie in two branches of their apex w (w itself a branch
    of depth 0), at most down[w] + second[w] <= 2 H_i apart, and vertices
    of T_i and T_j, j != i, at most reach[i] = H_i + far_i apart (H_i =
    down[c_i], far from _cycle_reach). Both bounds are attained, so d is
    the larger. No apex passes the cycle's best unless 2 max H_i does, so
    apex, the best apex sum, is read only then and is -1 otherwise. At
    2 max H_i = max reach an apex can reach d only on the cycle, at c_i
    with the largest H_i, and then reach[i] = d already names it.
    """
    heights = [down[c] for c in cycle]
    reach = list(map(add, heights, _cycle_reach(heights)))
    d, apex = max(reach), -1
    if 2 * max(heights) > d:
        apex = max(map(add, down, second))
        if apex > d:
            d = apex
    return d, (down, second, lo, apex, reach)


def _far_ends(g: Graph, forest: tuple, d: int, fold: tuple) -> tuple:
    """(u, v, i, j) of a tree or a connected unicyclic graph from its strip,
    its diameter d and the fold of _diameter: (u, v) is the smallest pair d
    apart, and c_i, c_j the roots of their pendant trees.

    Proof. A pair d apart ends at deepest vertices of two branches of an
    apex w with down[w] + second[w] = d (or at w if second[w] = 0), or of
    T_i and T_j with reach[i] = d = reach[j] (see _diameter; the apexes
    are listed only when the best sum, apex, reaches d). So u is the least
    lo[c_i] over those i and, over those w, lo[w] and the least lo of a
    child of w reaching second[w] - 1 (w itself if second[w] = 0). A
    vertex d from u in T_i meets u's climb at an ancestor a, k up, whose
    other branches reach at most d - k (an O(1) test on down and second):
    the least is the least lo of a child of a off u's branch reaching
    d - k - 1, found by one scan of a's neighbours (a itself if k = d). One
    in T_j needs depth(u) + far_i = d and H_j + cdist(i, j) = far_i, so c_j
    is among the c_i above: the least is lo[c_j]. v is the least of these.
    A tree's cycle is its root alone: reach = [H] and i = j always.
    """
    _, parent, (cycle,) = forest
    down, second, lo, apex, reach = fold
    u = len(parent)
    if apex == d:
        # an apex w pairs lo[w] with w itself or a deepest vertex of its second branch
        for w in _where(list(map(add, down, second)), d):
            t = second[w]
            if lo[w] < u:
                u = lo[w]
            if not t:
                u = w if w < u else u
            else:
                for y in g.adj[w]:
                    if parent[y] == w and down[y] == t - 1 and lo[y] < u:
                        u = lo[y]
    tight = _where(reach, d)
    for i in tight:
        if lo[cycle[i]] < u:
            u = lo[cycle[i]]
    v, x, k, below, skip = len(parent), u, 0, -1, -1
    while True:  # u's climb: x is k up, and u's branch reaches below below x
        t = d - k
        if (second[x] if down[x] == below else down[x]) == t:
            if not t:
                v = x if x < v else v
            else:
                for y in g.adj[x]:
                    if parent[y] == x and down[y] == t - 1 and lo[y] != skip and lo[y] < v:
                        v = lo[y]
        if parent[x] == x:
            break
        x, k, below, skip = parent[x], k + 1, down[x] + 1, lo[x]
    i = j = cycle.index(x)
    far = reach[i] - down[x]
    if k + far == d:
        r = len(cycle)
        for y in tight:
            arc = abs(y - i)
            if y != i and down[cycle[y]] + min(arc, r - arc) == far and lo[cycle[y]] < v:
                v, j = lo[cycle[y]], y
    return u, v, i, j


def _diametral_path(parent: list[int], cycle: list[int], u: int, v: int, i: int, j: int) -> tuple:
    """The smallest sequence from u to v, given (u, v, i, j) of _far_ends.
    In one pendant tree (i == j) the only path runs through the meet of the
    two climbs. Otherwise every shortest path climbs from u, takes a
    shortest arc from c_i to c_j and descends to v; an even cycle may have
    two, and the one whose first vertex is smaller is taken."""
    climb, back = [u], [v]
    while parent[climb[-1]] != climb[-1]:
        climb.append(parent[climb[-1]])
    rank = dict(zip(climb, range(len(climb)))) if i == j else {}
    while back[-1] not in rank and parent[back[-1]] != back[-1]:
        back.append(parent[back[-1]])
    if i == j:
        return tuple(climb[: rank[back[-1]]] + back[::-1])
    r, ring = len(cycle), cycle[i:] + cycle[:i]  # ring from u's root, in cycle order
    ahead = (j - i) % r
    backward = 2 * ahead > r or (2 * ahead == r and ring[-1] < ring[1])
    return tuple(climb + (ring[:ahead:-1] if backward else ring[1:ahead]) + back[::-1])


def diameter_and_path(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact diameter and one diametral path, deterministically chosen.

    Ties break to the lexicographically smallest endpoint pair (u, v) with
    u < v, then to the lexicographically smallest vertex sequence from u.
    A tree or a unicyclic g takes O(n) time and memory and no search: d
    and the ends read off the heights of the fold at 1 and the cycle's
    reach (_diameter, then _far_ends), then the path off the leaf strip.
    Any other g takes one BFS per vertex, O(n m) time, and O(n) memory.
    """
    forest = _connected_strip(g)
    if forest is not None:
        stripped, parent, (cycle,) = forest
        d, fold = _diameter(cycle, *_pendant_pass(g, stripped, parent)[8:])
        return d, _diametral_path(parent, cycle, *_far_ends(g, forest, d, fold))
    if not g.is_connected():
        raise NotConnectedError("diameter of a disconnected graph is undefined")
    # the first source of the largest eccentricity, and the smallest vertex
    # that far from it, is the smallest pair at the diameter
    d, u, v = -1, 0, 0
    for a in range(g.n):
        dist = bfs_distances(g, a)
        ecc = max(dist)
        if ecc > d:
            d, u, v = ecc, a, dist.index(ecc)
    return d, _walk_to(g, u, v)


# ---------------------------------------------------------------------------
# reduction to the minimal core


@dataclass
class CoreClassification:
    """Minimal unicyclic subgraph containing a diametral path, classified.

    kind is one of "cycle", "lollipop", "compass", "other". params holds the
    reconstructed family parameters: (n,) for a cycle, (n, r) for a lollipop
    and (n, r, r_prime, t) for a compass with t <= s canonically (swapping
    the two tails is a graph isomorphism). graph is the input, diametral_path
    and core_vertices (sorted) are in its labels, and core is graph induced
    on core_vertices, reindexed in order, or graph itself; each of the three
    is built when first read. Equality compares kind, params and graph.
    """

    kind: str
    params: tuple[int, ...]
    graph: Graph = field(repr=False)  # the input
    _ends: tuple = field(repr=False, compare=False)  # (parent, cycle, u, v, i, j)

    @cached_property
    def diametral_path(self) -> tuple[int, ...]:
        return _diametral_path(*self._ends)

    @cached_property
    def core_vertices(self) -> tuple[int, ...]:
        parent, cycle, *ends = self._ends[:4]
        keep = set(cycle)  # and both ends' climbs to it: the path and any connector
        for x in ends:
            while x not in keep:
                keep.add(x)
                x = parent[x]
        return tuple(sorted(keep))

    @cached_property
    def core(self) -> Graph:
        verts, g = self.core_vertices, self.graph
        if len(verts) == g.n:
            return g
        index = {v: i for i, v in enumerate(verts)}  # monotone: filtered lists stay sorted
        return Graph._trusted(
            len(verts), tuple(tuple(index[w] for w in g.adj[v] if w in index) for v in verts)
        )


def reduce_to_core(g: Graph) -> CoreClassification:
    """Cycle plus diametral path plus (if needed) a shortest connector.

    Lower bounds certified on the core transfer to g because g is recovered
    from the core by repeatedly attaching pendant vertices, and a leaf w at
    v never lowers count01 = n_-(L - I): in L(g + w) - I the pair (w, v) is
    a block [[0, -1], [-1, x]] of determinant -1, one negative and one
    positive eigenvalue, whose Schur complement is M_v, L(g) - I without v
    (Haynsworth), so count01(g + w) = 1 + n_-(M_v), which is count01(g) or
    count01(g) + 1 by Cauchy interlacing.
    """
    forest = _unicyclic_strip(g)
    stripped, parent, (cycle,) = forest
    return _reduce_to_core(g, forest, *_diameter(cycle, *_pendant_pass(g, stripped, parent)[8:]))


def _reduce_to_core(g: Graph, forest: tuple, d: int, fold: tuple) -> CoreClassification:
    """reduce_to_core from g's strip, its diameter d and the fold of
    _diameter. The diameter's ends (u, v, i, j) are found here, by
    _far_ends: of the callers of _fold_at_one, only analyze's core reads
    them. Ends in one pendant tree make the core "other". Otherwise the
    path is a tail of H_i, an arc of cdist(i, j) >= 1 and a tail of H_j:
    no tail makes a cycle, one a lollipop and two a compass."""
    _, parent, (cycle,) = forest
    down, ends = fold[0], _far_ends(g, forest, d, fold)
    r, (i, j) = len(cycle), ends[2:]
    kind, params = "other", ()
    if i != j:
        s, t, arc = down[cycle[i]], down[cycle[j]], abs(i - j)
        if not (s or t):
            kind, params = "cycle", (r,)
        elif not (s and t):
            kind, params = "lollipop", (r + s + t, r)
        else:
            kind, params = "compass", (r + s + t, r, min(arc, r - arc), min(s, t))
    return CoreClassification(kind, params, g, (parent, cycle, *ends))


# ---------------------------------------------------------------------------
# edge-list text format: "n m" header, then one "u v" line per edge with
# u < v, ASCII decimal; lines starting with '#' are comments. The reader
# rejects n > m + 1 before allocating anything for n vertices: no connected
# graph has fewer edges, and every command that reads a graph needs one.


def write_edge_list(g: Graph, dest: TextIO) -> None:
    dest.write(f"{g.n} {g.m}\n")
    for u, v in g.edges():
        dest.write(f"{u} {v}\n")


def read_edge_list(src: TextIO) -> Graph:
    lines: Iterator[str] = (
        line.strip() for line in src if line.strip() and not line.lstrip().startswith("#")
    )
    try:
        header = next(lines)
    except StopIteration:
        raise InvalidParameterError("empty edge-list input") from None
    try:
        n, m = (int(tok) for tok in header.split())
    except ValueError:
        raise InvalidParameterError(f"malformed header line: {header!r}") from None
    if n > m + 1:
        raise InvalidParameterError(f"{n} vertices cannot be connected by {m} edges")
    edges = []
    for line in lines:
        try:
            u, v = (int(tok) for tok in line.split())
        except ValueError:
            raise InvalidParameterError(f"malformed edge line: {line!r}") from None
        if not u < v:
            raise InvalidParameterError(f"edge lines need u < v, got {line!r}")
        edges.append((u, v))
    if len(edges) != m:
        raise InvalidParameterError(f"header promised {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)

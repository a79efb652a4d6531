"""The separate walks of the leaf strip that graphs._fold_at_one replaced.

This is the earlier unilap code, unchanged apart from names: count01 and
mult1 came from spectra._forest_inertia at p = q = 1 and gamma from a fold
of its own (bounds._forest_gamma and _fold), the eccentricities took the
pendant-tree heights in a loop of their own, and the core reduction rebuilt
the core as a Graph and classified it from that graph's degrees
(graphs._classify). unilap.graphs now carries the pivot at 1, the gamma
states and the heights in one pass and classifies the core in the input's
labels, so these share only the leaf strip, spectra._forest_inertia and
the eccentricities' use of the heights. _fold_at_one and _forest_inertia
both close the cycle by linalg._close_cycle, so a fault there shows in
both; the independent oracles (the dense and heap kernels) catch it.
"""

from unilap.graphs import Graph
from unilap.spectra import _forest_inertia


def _fold(a: list[int], b: list[int], c: list[int], order: list[int], parent: list[int]) -> None:
    """Fold every vertex of order into its parent, in leaf-to-root order.

    Over the part of x's subtree folded so far, a[x] is the size of the
    smallest set D dominating it with x in D, b[x] the same with x outside
    D but dominated by a child, and c[x] the size of the smallest D
    dominating all of it but x, with neither x nor a child in D. order
    lists each vertex after all of its children.
    """
    for x in order:
        p, ax, bx, cx = parent[x], a[x], b[x], c[x]
        dom = ax if ax < bx else bx
        a[p] += dom if dom < cx else cx
        via_child, via_x = b[p] + dom, c[p] + ax
        b[p] = via_child if via_child < via_x else via_x
        c[p] += bx


def forest_gamma(stripped: list[int], parent: list[int], cycles: list[list[int]]) -> int:
    """Domination number of a tree (no cycles) or a connected unicyclic
    graph (one cycle), from its leaf strip (graphs._cycle_forest).

    A tree is folded into its root, the last vertex stripped. On a
    unicyclic graph, with cycle vertex c_i a child of c_{i-1}, G minus the
    closing edge c_{r-1}c_0 is a tree rooted at c_0. A dominating set of G
    holding neither end of that edge dominates the tree, so gamma is the
    least of three tree DPs: plain, c_0 in D with c_{r-1} dominated by it,
    and c_{r-1} in D with c_0 dominated by it. The pendant trees are folded
    once; only the cycle path is walked three times.
    """
    n = len(parent)
    inf = n + 1
    a, b, c = [1] * n, [inf] * n, [0] * n
    if not cycles:
        _fold(a, b, c, stripped[:-1], parent)
        return min(a[stripped[-1]], b[stripped[-1]])
    _fold(a, b, c, stripped, parent)
    cycle = cycles[0]

    def up_the_cycle(sa: int, sb: int, sc: int) -> tuple[int, int, int]:
        for v in reversed(cycle[:-1]):
            dom = sa if sa < sb else sb
            low, via_child, via_v = dom if dom < sc else sc, b[v] + dom, c[v] + sa
            sa, sb, sc = a[v] + low, via_child if via_child < via_v else via_v, c[v] + sb
        return sa, sb, sc

    last = cycle[-1]
    plain_a, plain_b, _ = up_the_cycle(a[last], b[last], c[last])
    first_in_d, _, _ = up_the_cycle(a[last], min(b[last], c[last]), inf)
    last_in_d = min(up_the_cycle(a[last], inf, inf))
    return min(plain_a, plain_b, first_in_d, last_in_d)


def count01_mult1_gamma(g: Graph, forest: tuple) -> tuple[int, int, int]:
    """count[0,1), the multiplicity of 1, and gamma, by two folds of the strip."""
    at_one = _forest_inertia(g, *forest, 1, 1)
    return at_one.negatives, at_one.zeros, forest_gamma(*forest)


def heights(pendant: list[int], parent: list[int]) -> tuple[list[int], list[int]]:
    """down[x], the height of x's subtree, and second[x], the runner-up over
    the children of x of 1 + down[child]; pendant lists each vertex off the
    cycle after its children."""
    n = len(parent)
    down = [0] * n
    second = [0] * n
    for x in pendant:
        p, h = parent[x], down[x] + 1
        if h > down[p]:
            down[p], second[p] = h, down[p]
        elif h > second[p]:
            second[p] = h
    return down, second


def classify(core: Graph, cycle: list[int], path: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
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
        return (*classify(g, cycle, path), g, tuple(range(g.n)))
    verts = sorted(keep)
    relabel = {v: i for i, v in enumerate(verts)}
    core_cycle = [relabel[c] for c in cycle]
    edges = [(i, relabel[parent[v]]) for i, v in enumerate(verts) if parent[v] != v]
    edges += zip(core_cycle, core_cycle[1:] + core_cycle[:1])
    core = Graph.from_edges(len(verts), edges)
    kind, params = classify(core, core_cycle, tuple(relabel[v] for v in path))
    return kind, params, core, tuple(verts)

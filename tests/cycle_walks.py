"""The cycle and path walks of analyze before it read the ends off the fold.

This is the earlier unilap code, unchanged. The fold at 1
closed gamma by calling a nested walk up the cycle three times, once per
(a, b, c) start; each cycle vertex's farthest reach round the cycle came
from two deque windows, one each way (_farthest_clockwise); the
eccentricity of every vertex came from the pendant-tree heights and the
reach (_unicyclic_eccentricities, here on graphs._cycle_reach, as it last
ran in unilap.graphs); the diametral path took the smallest vertex of
largest eccentricity and a distance from it to every vertex before looking
for the second end; and the core was classified from sets over the kept
vertices, after re-walking the first end's climb, into the eager
CoreClassification below. unilap.graphs now walks the cycle once for gamma,
reaches round it by a max-plus transform of the antipodal peaks, reads the
diameter's two ends off the fold's heights and deepest labels, and
classifies the core from the ends, building its path and vertices only
when read, so these share only the leaf strip, _cycle_reach and
_cycle_inertia. analyze is bounds.analyze composed from these pieces, with
its compass check through CompassParams.
"""

from collections import deque
from dataclasses import dataclass

from unilap.bounds import BoundReport, compass_bounds, main_lower_bound, refined_lollipop_bound
from unilap.graphs import CompassParams, Graph, _cycle_reach, _unicyclic_strip
from unilap.linalg import Inertia, _cycle_inertia


@dataclass
class CoreClassification:
    """graphs.CoreClassification as it was, every field built at once."""

    kind: str
    params: tuple[int, ...]
    core_vertices: tuple[int, ...]
    diametral_path: tuple[int, ...]


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



def _fold_at_one(
    g: Graph, stripped: list[int], parent: list[int], cycles: list[list[int]]
) -> tuple[int, int, int, list[int], list[int]]:
    """(count01, mult1, gamma, down, second) of a tree or a connected
    unicyclic g in one pass over its leaf strip; a tree's cycle is its root.

    Folding x into its parent u carries three things. num[x] / den[x] is
    the pivot of L - I on x's subtree (Jacobs and Trevisan, LAA 2011, as in
    spectra._forest_inertia at p = q = 1): a zero pivot pairs with u, giving
    one negative and one positive, and each further zero child is a zero.
    a[x], b[x], c[x] are the smallest sets dominating the subtree with x in
    the set, with x out but dominated by a child, and dominating all but x
    with neither in the set (Cockayne, Goodman and Hedetniemi, IPL 1975).
    down[x] is the subtree's height and second[x] the runner-up over x's
    children of 1 + down[child]. The cycle then closes once for each: a
    paired cycle vertex cuts it into arcs folded as paths, an intact one
    closes by linalg._cycle_inertia, and gamma is the least of three walks
    up the cycle path c_0..c_{r-1}, G minus the edge c_{r-1}c_0: plain, c_0
    in D dominating c_{r-1}, and c_{r-1} in D dominating c_0.
    """
    n = g.n
    cycle, pendant = (cycles[0], stripped) if cycles else (stripped[-1:], stripped[:-1])
    num = [len(nbrs) - 1 for nbrs in g.adj]
    den = [1] * n
    paired = [0] * n  # zero children
    inf = n + 1  # above every set size, and so is any sum containing it
    a, b, c, down, second = [1] * n, [inf] * n, [0] * n, [0] * n, [0] * n
    neg = zero = 0
    # comparisons, not min() or max(): a builtin call per vertex was most of this loop's time
    for x in pendant:
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
            down[u], second[u] = h, down[u]
        elif h > second[u]:
            second[u] = h

    cut = next((i for i, v in enumerate(cycle) if paired[v]), None)
    if cut is None and cycles:
        # a pivot keeps its value when num and den both change sign
        nums = [num[v] if den[v] > 0 else -num[v] for v in cycle]
        closed = Inertia(*_cycle_inertia(nums, [abs(den[v]) for v in cycle], 1))
        neg, zero = neg + closed.negatives, zero + closed.zeros
    else:
        # from just after the first cut round to it, each vertex folds into
        # the next; the last is a cut, which settles alone, or a tree's root
        path = cycle[cut + 1 :] + cycle[: cut + 1] if cycles else cycle
        for x, u in zip(path, path[1:] + path[-1:]):
            if paired[x]:
                neg, zero = neg + 1, zero + paired[x] - 1
            elif num[x]:
                t, s = num[x], den[x]
                neg += (t > 0) is not (s > 0)
                num[u] = num[u] * t - s * den[u]
                den[u] *= t
            elif u == x:
                zero += 1
            else:
                paired[u] += 1

    def up_the_cycle(sa: int, sb: int, sc: int) -> tuple[int, int, int]:
        for v in reversed(cycle[:-1]):
            dom = sa if sa < sb else sb
            low, via_child, via_v = dom if dom < sc else sc, b[v] + dom, c[v] + sa
            sa, sb, sc = a[v] + low, via_child if via_child < via_v else via_v, c[v] + sb
        return sa, sb, sc

    last = cycle[-1]
    plain_a, plain_b, _ = up_the_cycle(a[last], b[last], c[last])
    first_in_d = up_the_cycle(a[last], min(b[last], c[last]), inf)[0]
    last_in_d = min(up_the_cycle(a[last], inf, inf))
    return neg, zero, min(plain_a, plain_b, first_in_d, last_in_d), down, second


def _unicyclic_eccentricities(
    cycle: list[int], pendant: list[int], parent: list[int], down: list[int], second: list[int]
) -> list[int]:
    """Eccentricity of every vertex of a tree or a connected unicyclic
    graph, in O(n), from the heights down and second of _fold_at_one.
    pendant lists the vertices off the cycle, each after its children; a
    tree's cycle is its root alone.

    far(c) is the farthest reach from cycle vertex c through the rest of the
    cycle (cycle distance plus the height there, over c' != c), and up[x] the
    farthest reach from x outside its subtree: up[c] = far(c), and for a
    child x of p, 1 + max(up[p], the best reach from p through a sibling),
    with far from _cycle_reach (0 on a tree).
    """
    up = [0] * len(parent)
    for c, far in zip(cycle, _cycle_reach([down[c] for c in cycle])):
        up[c] = far
    # comparisons, not max(): a builtin call per vertex was most of these loops' time
    for x in reversed(pendant):
        p = parent[x]
        sibling = second[p] if down[x] + 1 == down[p] else down[p]
        above = up[p]
        up[x] = 1 + (above if above > sibling else sibling)
    return [a if a > b else b for a, b in zip(down, up)]


def _unicyclic_diameter_and_path(
    stripped: list[int], parent: list[int], cycles: list[list[int]], down: list[int], second: list[int]
) -> tuple[int, tuple[int, ...]]:
    """diameter_and_path for a tree or a connected unicyclic graph, from its
    leaf strip and the heights of _fold_at_one; a tree is rooted at the last
    vertex stripped.

    Every vertex at distance d from a vertex of eccentricity d has
    eccentricity d too, so the smallest pair (u, v) at distance d has u the
    smallest vertex of eccentricity d and v the smallest vertex at distance
    d from u. Both, and the path, come off the forest with no search.

    Distances from u take one pass over the reversed strip: u's ancestors
    lie on its climb to its cycle vertex, every other cycle vertex is the
    shorter arc further on, and every other vertex is one past its parent,
    since u is not below it. When one cycle vertex roots both u and v (as
    on a tree, always), their only path runs through the vertex where the
    two climbs meet. Otherwise every shortest path climbs from u, takes a
    shortest arc and descends to v; only an even cycle has two, and the
    smallest sequence takes the one whose first vertex is smaller.
    """
    cycle, pendant = (cycles[0], stripped) if cycles else (stripped[-1:], stripped[:-1])
    r = len(cycle)
    ecc = _unicyclic_eccentricities(cycle, pendant, parent, down, second)
    d = max(ecc)
    u = ecc.index(d)
    climb = [u]
    while parent[climb[-1]] != climb[-1]:
        climb.append(parent[climb[-1]])
    k, home = len(climb) - 1, cycle.index(climb[-1])
    dist = [-1] * len(parent)
    for i, c in enumerate(cycle):
        arc = abs(i - home)
        dist[c] = k + min(arc, r - arc)
    for i, x in enumerate(climb):
        dist[x] = i
    for x in reversed(pendant):
        if dist[x] < 0:
            dist[x] = dist[parent[x]] + 1
    v = dist.index(d)

    rank = {x: i for i, x in enumerate(climb)}
    back = [v]
    while back[-1] not in rank and parent[back[-1]] != back[-1]:
        back.append(parent[back[-1]])
    meet = back[-1]
    if meet in rank:
        return d, tuple(climb[: rank[meet]] + back[::-1])
    ahead = (cycle.index(meet) - home) % r
    forward = 2 * ahead < r or (2 * ahead == r and cycle[(home + 1) % r] < cycle[home - 1])
    step = 1 if forward else -1
    arc = [cycle[(home + step * j) % r] for j in range(1, min(ahead, r - ahead))]
    return d, tuple(climb + arc + back[::-1])



def _reduce_to_core(g: Graph, forest: tuple, path: tuple[int, ...]) -> CoreClassification:
    """reduce_to_core given g's leaf strip and diametral path, in g's labels.

    The core is induced on the cycle, the path and, when the path misses
    the cycle, the tree walk joining them; that set is closed under parent,
    so its other edges join each kept vertex to its parent. It is a cycle
    when nothing hangs off the cycle, and a lollipop or a compass when one
    or two cycle vertices root a path each (no vertex has two kept
    children): the compass's tails are the path's ends off the cycle.
    """
    _, parent, (cycle,) = forest
    on_cycle = set(cycle)
    keep = on_cycle.union(path)
    # climbing from an end of the path meets only path vertices up to the
    # cycle, unless the path lies in one pendant tree: then it passes the
    # path's vertex nearest the cycle and goes on along the connector
    x = path[0]
    while parent[x] != x:
        x = parent[x]
        keep.add(x)
    sizes = (len(keep), len(cycle))
    hangs = [parent[v] for v in keep if v not in on_cycle]  # one per core edge off the cycle
    branch = on_cycle.intersection(hangs)
    if not hangs:
        kind, params = "cycle", sizes[:1]
    elif len(branch) > 2 or len(set(hangs)) < len(hangs):
        kind, params = "other", ()
    elif len(branch) == 1:
        kind, params = "lollipop", sizes
    else:
        ends = [i for i, v in enumerate(path) if v in on_cycle]
        first, last = ends[0], ends[-1]
        kind, params = "compass", sizes + (last - first, min(first, len(path) - 1 - last))
    return CoreClassification(kind, params, tuple(sorted(keep)), path)


def analyze(g: Graph) -> BoundReport:
    """Measure g exactly and check every applicable inequality on g itself."""
    # one leaf strip, folded once at 1, gives count01, mult1, gamma and the
    # heights the diameter reads; the core reduction takes the diametral path
    forest = _unicyclic_strip(g)
    r = len(forest[2][0])
    count01, mult1, gamma, down, second = _fold_at_one(g, *forest)
    d, path = _unicyclic_diameter_and_path(*forest, down, second)
    core = _reduce_to_core(g, forest, path)

    main = main_lower_bound(d, r)
    refined: int | None = None
    alpha: int | None = None
    if core.kind == "lollipop":
        refined = refined_lollipop_bound(d, r)
    elif core.kind == "compass":
        cn, cr, crp, ct = core.params
        alpha = cr // 2 - crp
        # swapping the two tails is an isomorphism, so the strengthened
        # bound applies if either orientation meets its hypotheses
        for t in (ct, cn - cr - ct):
            strengthened = compass_bounds(CompassParams(cn, cr, crp, t))[1]
            if strengthened is not None:
                refined = strengthened
                break
    k = max(main, refined) if refined is not None else main

    verdicts = {"main_bound": count01 >= main}
    if refined is not None:
        verdicts["refined_bound"] = count01 >= refined
    verdicts["hedetniemi"] = count01 <= gamma
    if r >= 7:
        verdicts["chain"] = d + 1 <= 3 * main and main <= count01 and count01 <= gamma
    return BoundReport(g.n, r, d, count01, mult1, gamma, main, refined, alpha, k, verdicts, core)

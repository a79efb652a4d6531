"""Lower-bound formulas, exact domination number, per-graph verdicts.

The headline inequality for a connected unicyclic graph with diameter d and
girth r is

    count[0,1) >= ceil(d/3) + ceil(r/6) - 1,

sandwiched from above by the domination number gamma. gamma is exact: a
linear tree DP on every component with at most one cycle, in the fold of
the leaf strip at 1 that also gives the count, and branch and bound on a
graph with two cycles in one component. Refinements exist for lollipop
cores (r not divisible by 6 improves the bound by one in the diameter
term) and for a narrow compass case.
analyze() measures everything on the input graph itself and never trusts
the core reduction as the sole certificate.
"""

from dataclasses import dataclass

from .errors import InvalidParameterError, SizeCapExceededError
from .graphs import (
    CompassParams,
    CoreClassification,
    Graph,
    _cycle_forest,
    _cycle_gamma,
    _fold_at_one,
    _pendant_pass,
    _reduce_to_core,
    _unicyclic_strip,
    diameter_and_path,
)

GAMMA_CAP_DEFAULT = 32  # largest n given to branch and bound, the one exponential path


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def main_lower_bound(d: int, r: int) -> int:
    """ceil(d/3) + ceil(r/6) - 1, valid for every connected unicyclic graph."""
    if d < 1 or r < 3:
        raise InvalidParameterError(f"need d >= 1 and r >= 3, got d={d} r={r}")
    return ceil_div(d, 3) + ceil_div(r, 6) - 1


def refined_lollipop_bound(d: int, r: int) -> int:
    """Lollipop bound, one better in the diameter term unless 6 | r."""
    if d < 1 or r < 3:
        raise InvalidParameterError(f"need d >= 1 and r >= 3, got d={d} r={r}")
    if r % 6 != 0:
        return ceil_div(d + 1, 3) + ceil_div(r, 6) - 1
    return main_lower_bound(d, r)


def lollipop_exact_count(n: int, r: int) -> int | None:
    """Exact count d/3 + ceil(r/6) when 3 | d and r is not divisible by 6."""
    if not 3 <= r < n:
        raise InvalidParameterError(f"need 3 <= r < n, got n={n} r={r}")
    d = n - ceil_div(r, 2)
    if d % 3 == 0 and r % 6 != 0:
        return d // 3 + ceil_div(r, 6)
    return None


def compass_bounds(p: CompassParams) -> tuple[int, int | None]:
    """Base bound for every valid compass, plus the strengthened one.

    The strengthened value ceil(d/3) + ceil(r/6) applies exactly when
    3 | n, 6 | r, r' = r/2 and t = 1 (mod 3); otherwise None.
    """
    p.validate()
    base = main_lower_bound(p.d, p.r)
    strengthened = None
    if _strengthens(p.n, p.r, p.r_prime, p.t):
        strengthened = ceil_div(p.d, 3) + ceil_div(p.r, 6)
    return base, strengthened


def _strengthens(n: int, r: int, r_prime: int, t: int) -> bool:
    """Whether the compass (n, r, r', t) meets the strengthened hypothesis,
    3 | n, 6 | r, r' = r/2 and t = 1 (mod 3), read on the tail t alone."""
    return n % 3 == 0 and r % 6 == 0 and r_prime == r // 2 and t % 3 == 1


# ---------------------------------------------------------------------------
# domination number


def _greedy_dominating_size(closed: list[int], full: int) -> int:
    dominated = 0
    size = 0
    while dominated != full:
        gain, pick = 0, -1
        for v, mask in enumerate(closed):
            g = (mask & ~dominated).bit_count()
            if g > gain:
                gain, pick = g, v
        dominated |= closed[pick]
        size += 1
    return size


def domination_number(g: Graph) -> int:
    """Exact domination number.

    A graph whose components each have at most one cycle, told apart by its
    leaf strip with no connectivity search, takes the linear DP at any n:
    graphs._pendant_pass, then graphs._cycle_gamma, which closes no pivot,
    on each cycle of the strip, a tree's root included. A graph with two
    cycles in one component takes branch and bound over closed
    neighbourhoods, which is exponential and so raises
    SizeCapExceededError when n exceeds GAMMA_CAP_DEFAULT.
    """
    forest = _cycle_forest(g)
    if forest is not None:
        stripped, parent, cycles = forest
        a, b, c = _pendant_pass(g, stripped, parent)[5:8]
        return sum(_cycle_gamma(cycle, a, b, c, g.n + 1) for cycle in cycles)
    if g.n > GAMMA_CAP_DEFAULT:
        raise SizeCapExceededError(f"branch and bound refuses n={g.n} > {GAMMA_CAP_DEFAULT}")
    return _branch_and_bound_gamma(g, diameter_and_path(g)[0] if g.is_connected() else None)


def _branch_and_bound_gamma(g: Graph, d: int | None) -> int:
    """Domination number by branch and bound; d is g's diameter, or None
    when g is disconnected.

    Prunes with a greedy upper bound, the per-node coverage lower bound, and
    the diameter bound ceil((d+1)/3) <= gamma.
    """
    n = g.n
    closed = [(1 << v) | sum(1 << w for w in g.adj[v]) for v in range(n)]
    full = (1 << n) - 1

    best = _greedy_dominating_size(closed, full)
    if d is not None and best == ceil_div(d + 1, 3):
        return best

    def search(dominated: int, chosen: int) -> None:
        nonlocal best
        if dominated == full:
            best = min(best, chosen)
            return
        remaining = n - dominated.bit_count()
        max_gain = max((closed[v] & ~dominated).bit_count() for v in range(n))
        if chosen + ceil_div(remaining, max_gain) >= best:
            return
        # every dominating set meets the closed neighborhood of any
        # undominated vertex; branch on the one with fewest options
        u = min(
            (v for v in range(n) if not (dominated >> v) & 1),
            key=lambda v: closed[v].bit_count(),
        )
        candidates = sorted(
            (w for w in range(n) if (closed[u] >> w) & 1),
            key=lambda w: -(closed[w] & ~dominated).bit_count(),
        )
        for w in candidates:
            search(dominated | closed[w], chosen + 1)

    search(0, 0)
    return best


# ---------------------------------------------------------------------------
# per-graph report


@dataclass
class BoundReport:
    """Everything measured and asserted about one connected unicyclic graph."""

    n: int
    girth: int
    diameter: int
    count01: int
    mult1: int
    gamma: int
    main_bound: int
    refined_bound: int | None
    alpha: int | None
    k: int
    verdicts: dict[str, bool]
    core: CoreClassification

    @property
    def all_ok(self) -> bool:
        return all(self.verdicts.values())


def analyze(g: Graph) -> BoundReport:
    """Measure g exactly and check every applicable inequality on g itself."""
    # one leaf strip, folded once at 1, gives count01, mult1, gamma, d and the
    # diameter's ends; the core is classified from the ends
    forest = _unicyclic_strip(g)
    r = len(forest[2][0])
    count01, mult1, gamma, d, ends = _fold_at_one(g, forest)
    core = _reduce_to_core(g, forest, *ends)

    main = main_lower_bound(d, r)
    refined: int | None = None
    alpha: int | None = None
    if core.kind == "lollipop":
        refined = refined_lollipop_bound(d, r)
    elif core.kind == "compass":
        cn, cr, crp, ct = core.params
        alpha = cr // 2 - crp
        # compass_bounds' strengthened case on either tail: a tail swap is an isomorphism
        if _strengthens(cn, cr, crp, ct) or _strengthens(cn, cr, crp, cn - cr - ct):
            refined = ceil_div(d, 3) + ceil_div(r, 6)
    k = max(main, refined) if refined is not None else main
    verdicts = _verdicts(count01, gamma, d, r, main, refined)
    return BoundReport(g.n, r, d, count01, mult1, gamma, main, refined, alpha, k, verdicts, core)


def _verdicts(count01: int, gamma: int, d: int, r: int, main: int, refined: int | None) -> dict:
    """analyze's verdicts, in report order: the main bound, the refined one
    when a core refines it, count01 <= gamma, and at r >= 7 the chain
    d + 1 <= 3 main <= 3 count01 <= 3 gamma."""
    verdicts = {"main_bound": count01 >= main}
    if refined is not None:
        verdicts["refined_bound"] = count01 >= refined
    verdicts["hedetniemi"] = count01 <= gamma
    if r >= 7:
        verdicts["chain"] = d + 1 <= 3 * main and main <= count01 and count01 <= gamma
    return verdicts

"""Oracles that share no code with unilap.

Everything here works from an edge list with the standard library and
numpy. Float spectra are consulted only away from the points they decide:
an eigenvalue within DELTA of an interval endpoint makes the float count
inconclusive, and the check then falls back to the bracket it can prove.
"""

import math
from collections import deque
from itertools import combinations

import numpy as np

# OEIS A001429: connected unicyclic graphs on n nodes, up to isomorphism
A001429 = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657}

# float eigenvalues are trusted to this distance; eigvalsh errors on these
# integer Laplacians are below 1e-12
DELTA = 1e-7


def ceil_div(a, b):
    return -(-a // b)


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def diameter(n, adj):
    """Largest BFS eccentricity, by one BFS per vertex."""
    best = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        best = max(best, max(dist))
    return best


def cycle_length(n, adj):
    """Vertices left after stripping leaves repeatedly (the cycle of a unicyclic graph)."""
    deg = [len(a) for a in adj]
    queue = deque(v for v in range(n) if deg[v] == 1)
    left = n
    while queue:
        v = queue.popleft()
        left -= 1
        for w in adj[v]:
            deg[w] -= 1
            if deg[w] == 1:
                queue.append(w)
    return left


def laplacian(n, edges):
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u, v] = lap[v, u] = -1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    return lap


def eigenvalues(n, edges):
    return np.linalg.eigvalsh(laplacian(n, edges))


def float_count(eigs, a, b):
    """Eigenvalues in [a, b), or None when one lies within DELTA of a or b."""
    a, b = float(a), float(b)
    if np.any(np.abs(eigs - a) < DELTA) or np.any(np.abs(eigs - b) < DELTA):
        return None
    return int(np.count_nonzero((eigs >= a) & (eigs < b)))


def count01_problems(eigs, count01, mult1):
    """count[0,1) and mult(1) against the float spectrum.

    Eigenvalues within DELTA of 1 may be 1 itself or lie just below it, so
    only the bracket below <= count01 <= below + near and the bound
    count01 + mult1 <= below + near are certain.
    """
    below = int(np.count_nonzero(eigs < 1 - DELTA))
    near = int(np.count_nonzero(np.abs(eigs - 1) <= DELTA))
    ok = below <= count01 <= below + near and mult1 <= near and count01 + mult1 <= below + near
    if near == 0:
        ok = ok and count01 == below and mult1 == 0
    return [] if ok else [f"count01={count01} mult1={mult1} vs float below={below} near={near}"]


def main_bound(d, r):
    return ceil_div(d, 3) + ceil_div(r, 6) - 1


def path_count(n, a, b):
    """Eigenvalues 2 - 2cos(pi k/n) of the n-path in [a, b); None near an endpoint."""
    return float_count(np.array([2 - 2 * math.cos(math.pi * k / n) for k in range(n)]), a, b)


def cycle_count(n, a, b):
    """Eigenvalues 2 - 2cos(2 pi k/n) of the n-cycle in [a, b); None near an endpoint."""
    return float_count(np.array([2 - 2 * math.cos(2 * math.pi * k / n) for k in range(n)]), a, b)


def cycle_count01(n):
    return 2 * ceil_div(n, 6) - 1


def lollipop_count01(n, r):
    """Exact count d/3 + ceil(r/6) when 3 | d and r is not divisible by 6, else None."""
    d = n - ceil_div(r, 2)
    return d // 3 + ceil_div(r, 6) if d % 3 == 0 and r % 6 != 0 else None


def lollipop_mult1(n, r):
    """Multiplicity of 1 on a lollipop where the witness constructions fix it, else None."""
    if r % 6 == 0:
        return 2 if n % 3 == 0 else 1
    if (r % 6 == 1 and n % 3 == 0) or (r % 6 == 3 and n % 3 == 1):
        return 1
    return None


def is_eigenvector_one(n, edges, entries):
    """Whether the integer vector is nonzero with L v = v."""
    if len(entries) != n or not any(entries):
        return False
    out = list(entries)
    for u, v in edges:
        out[u] -= entries[u] - entries[v]
        out[v] -= entries[v] - entries[u]
    return out == [0] * n


def charpoly_problems(n, edges, coeffs):
    """Ascending integer coefficients of det(xI - L) against trace, kernel and numpy."""
    problems = []
    if len(coeffs) != n + 1 or coeffs[-1] != 1:
        return [f"degree/leading coefficient wrong: {coeffs}"]
    if coeffs[0] != 0:
        problems.append("constant term nonzero, but L is singular")
    if coeffs[n - 1] != -2 * len(edges):
        problems.append(f"x^(n-1) coefficient {coeffs[n - 1]} != -2m")
    ref = np.poly(laplacian(n, edges))[::-1]
    if any(abs(c - x) > 1e-6 * max(1.0, abs(x)) for c, x in zip(coeffs, ref)):
        problems.append("coefficients disagree with numpy.poly")
    return problems


def interlacing_holds(n, edges, edge, slack=1e-8):
    """Edge-deletion interlacing mu_i(G) <= mu_{i+1}(G - e) <= mu_{i+1}(G)."""
    g = eigenvalues(n, edges)
    h = eigenvalues(n, [e for e in edges if e != edge])
    return all(g[i] <= h[i + 1] + slack and h[i + 1] <= g[i + 1] + slack for i in range(n - 1))


def domination_number(n, adj):
    """Smallest dominating set by exhaustive search over subset sizes (small n)."""
    closed = [(1 << v) | sum(1 << w for w in adj[v]) for v in range(n)]
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for pick in combinations(range(n), k):
            mask = 0
            for v in pick:
                mask |= closed[v]
            if mask == full:
                return k
    return n

"""Exhaustive generation of connected unicyclic graphs up to isomorphism.

A unicyclic graph is a cycle with a rooted tree hanging off each cycle
vertex, so a class of girth r is a sequence of r rooted trees whose sizes
sum to n, up to rotation and reflection of the cycle (a bracelet). Distinct
girths never collide. A rooted tree is its canonical code, the sorted tuple
of its children's codes; codes are ranked by Python's tuple order, so a
bracelet's least rank sequence is its least sequence of codes.

Each girth runs the Fredricksen-Kessler-Maiorana prenecklace walk
(a[t] >= a[t - p]; Ruskey, Savage & Wang, J. Algorithms 1992) under a
vertex budget, keeps a prenecklace when p divides r (a necklace), and drops
it when a rotation of its reversal is smaller (the bracelet filter of
Sawada, SIAM J. Comput. 2001). So each class is met once, as its least
sequence, and nothing is deduplicated afterwards.

Emission order: girth ascending, then least sequences in lexicographic rank
order. Labels: the cycle 0..r-1 (edges i, i + 1 and 0, r - 1), then each
slot's tree in preorder, slot by slot.
"""

from bisect import bisect_left
from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidParameterError
from .graphs import Graph

TreeCode = tuple  # nested tuples; () is the single vertex

ENUMERATION_MAX_N = 16


@lru_cache(maxsize=None)
def rooted_trees(size: int) -> tuple[TreeCode, ...]:
    """All rooted trees on `size` vertices, as canonical codes."""
    if size < 1:
        raise InvalidParameterError(f"need size >= 1, got {size}")
    if size == 1:
        return ((),)
    out: list[TreeCode] = []

    def fill(remaining: int, bound: tuple[int, TreeCode], acc: list[TreeCode]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for s in range(min(remaining, bound[0]), 0, -1):
            for code in rooted_trees(s):
                if (s, code) > bound:
                    continue
                acc.append(code)
                fill(remaining - s, (s, code), acc)
                acc.pop()

    top = max(rooted_trees(size - 1))
    fill(size - 1, (size - 1, top), [])
    return tuple(out)


class _Alphabet(NamedTuple):
    """Every rooted tree of size <= len(capped) - 1, by rank (tuple order of codes)."""

    size: list[int]  # size[x]: vertices of the tree of rank x
    floor: list[int]  # floor[x]: the least size of any rank >= x
    by_size: list[list[int]]  # by_size[s]: the ranks of size s, ascending
    capped: list[list[int]]  # capped[s]: the ranks of size <= s, ascending
    rows: list[tuple]  # rows[x][k]: (parent, children) of preorder vertex k


def _preorder_rows(code: TreeCode, pool: dict) -> tuple:
    """(parent, children) per vertex of the tree, in preorder from the root 0.
    Rows are shared through pool: a thousand distinct ones serve n = 16."""
    parents: list[int] = []
    kids: list[list[int]] = []
    stack = [(code, 0)]
    while stack:
        children, parent = stack.pop()
        k = len(parents)
        parents.append(parent)
        kids.append([])
        if k:
            kids[parent].append(k)
        stack += [(child, k) for child in reversed(children)]
    return tuple(pool.setdefault(row, row) for row in zip(parents, map(tuple, kids)))


_ALPHABET = _Alphabet([], [], [], [], [])


def _alphabet(max_size: int) -> _Alphabet:
    """The alphabet cache, rebuilt only when max_size outgrows it: a larger
    alphabet ranks the smaller codes in the same order, so it serves every
    smaller n too. One assignment publishes it, so threads see old or new."""
    global _ALPHABET
    if len(_ALPHABET.capped) > max_size:
        return _ALPHABET
    ranked = sorted((c, s) for s in range(1, max_size + 1) for c in rooted_trees(s))
    size = [s for _, s in ranked]
    floor = size[:]
    for x in range(len(size) - 2, -1, -1):
        floor[x] = min(floor[x], floor[x + 1])
    by_size: list[list[int]] = [[] for _ in range(max_size + 1)]
    for x, s in enumerate(size):
        by_size[s].append(x)
    capped = [[x for x, s in enumerate(size) if s <= cap] for cap in range(max_size + 1)]
    pool: dict = {}
    _ALPHABET = _Alphabet(size, floor, by_size, capped, [_preorder_rows(c, pool) for c, _ in ranked])
    return _ALPHABET


def _bracelets(n: int, r: int, alpha: _Alphabet) -> Iterator[list[int]]:
    """Each bracelet of r ranks whose sizes sum to n, as its least sequence,
    in lexicographic order. The yielded list is reused: copy it to keep it.

    An iterative FKM walk: depth t picks a[t] from the ranks >= a[t - p]
    that leave room for the open slots, where p[t] is the period of the
    prefix a[:t] (p stays when a[t] repeats a[t - p], else it becomes t + 1).
    The last slot starts at a[1]: below, the reversal's rotation (a[0], a[r-1], ...) is smaller.
    """
    size, floor, by_size, capped = alpha.size, alpha.floor, alpha.by_size, alpha.capped
    a = [0] * r
    period = [1] * (r + 1)
    rem = [n] * (r + 1)
    cands: list[list[int]] = [capped[n - r + 1]] + [[]] * (r - 1)
    pos = [0] * r
    t = 0
    while t >= 0:
        lst, i = cands[t], pos[t]
        if i == len(lst):
            t -= 1
            continue
        pos[t] = i + 1
        x = a[t] = lst[i]
        p = period[t] if t and x == a[t - period[t]] else t + 1
        left = rem[t] - size[x]
        t += 1
        if t == r:
            if r % p == 0:
                # a necklace; keep it unless a rotation of its reversal is smaller
                rev, a0 = a[::-1], a[0]
                if not any(rev[j] == a0 and rev[j:] + rev[:j] < a for j in range(r)):
                    yield a
            t -= 1
            continue
        fill = (r - t) * floor[a[0]]  # the least the open slots can hold
        low = a[t - p] if t < r - 1 else max(a[t - p], a[1])
        if left < fill or t == r - 1 and by_size[left][-1] < low:
            t -= 1
            continue
        period[t], rem[t] = p, left
        lst = by_size[left] if t == r - 1 else capped[left - fill + floor[a[0]]]
        cands[t], pos[t] = lst, bisect_left(lst, low)


def _graph(n: int, r: int, seq: list[int], rows: list[tuple]) -> Graph:
    """The class of rank sequence seq, with sorted adjacency written straight
    from each slot's preorder rows: a tree vertex's parent precedes it and
    its children follow it, so (parent,) + children is already sorted."""
    adj: list[tuple[int, ...]] = [()] * n
    off = r - 1  # preorder vertex k > 0 of the slot's tree gets label off + k
    for i, x in enumerate(seq):
        shift = off.__add__
        tree = rows[x]
        ring = (1, r - 1) if i == 0 else (0, r - 2) if i == r - 1 else (i - 1, i + 1)
        adj[i] = ring + tuple(map(shift, tree[0][1]))
        v = off
        for parent, kids in tree[1:]:
            v += 1
            up = parent + off if parent else i
            adj[v] = (up, *map(shift, kids)) if kids else (up,)
        off = v
    return Graph._trusted(n, tuple(adj))


def enumerate_unicyclic(n: int) -> Iterator[Graph]:
    """All connected unicyclic graphs on n vertices, one per isomorphism class.

    Deterministic order: girth ascending, then each class's least rank
    sequence in lexicographic order (see the module docstring). Each class
    is yielded as soon as it is found. n is checked here, at call time;
    all the work, the tree alphabet included, waits for the first next().
    """
    if not 3 <= n <= ENUMERATION_MAX_N:
        raise InvalidParameterError(
            f"need 3 <= n <= {ENUMERATION_MAX_N}, got {n}"
        )
    return _classes(n)


def _classes(n: int) -> Iterator[Graph]:
    alpha = _alphabet(n - 2)
    for r in range(3, n + 1):
        for seq in _bracelets(n, r, alpha):
            yield _graph(n, r, seq, alpha.rows)

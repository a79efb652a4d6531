"""Exhaustive generation of connected unicyclic graphs up to isomorphism.

A unicyclic graph is a cycle with a rooted tree hanging off each cycle
vertex (possibly just the vertex itself), so enumeration reduces to: pick
the girth r, pick a sequence of r rooted trees whose sizes sum to n, and
identify sequences that agree up to rotation or reflection of the cycle.

Rooted trees are handled as canonical nested tuples: the code of a tree is
the sorted tuple of its children's codes, which is a complete isomorphism
invariant for rooted trees, so necklace deduplication over tree codes is
exact graph-isomorphism deduplication within a fixed girth. Distinct girths
never collide.
"""

from collections.abc import Iterator
from functools import lru_cache

from .errors import InvalidParameterError
from .graphs import Graph

TreeCode = tuple  # nested tuples; () is the single vertex

ENUMERATION_MAX_N = 11


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


def tree_size(code: TreeCode) -> int:
    return 1 + sum(tree_size(child) for child in code)


def _canonical_necklace(codes: tuple[TreeCode, ...]) -> tuple[TreeCode, ...]:
    r = len(codes)
    variants = []
    for seq in (codes, codes[::-1]):
        for shift in range(r):
            variants.append(seq[shift:] + seq[:shift])
    return min(variants)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _build(r: int, codes: tuple[TreeCode, ...]) -> Graph:
    edges = [(i, (i + 1) % r) for i in range(r)]
    edges = [(min(a, b), max(a, b)) for a, b in edges]
    next_label = r

    def attach(parent: int, children: TreeCode) -> None:
        nonlocal next_label
        for child in children:
            label = next_label
            next_label += 1
            edges.append((parent, label))
            attach(label, child)

    for slot, code in enumerate(codes):
        attach(slot, code)
    return Graph.from_edges(next_label, edges)


def enumerate_unicyclic(n: int) -> Iterator[Graph]:
    """All connected unicyclic graphs on n vertices, one per isomorphism class.

    Deterministic order: girth ascending, then the generation order of tree
    assignments; each class is emitted at its first canonical appearance.
    """
    if not 3 <= n <= ENUMERATION_MAX_N:
        raise InvalidParameterError(
            f"need 3 <= n <= {ENUMERATION_MAX_N}, got {n}"
        )
    for r in range(3, n + 1):
        seen: set[tuple[TreeCode, ...]] = set()
        for sizes in _compositions(n, r):
            stacks = [rooted_trees(s) for s in sizes]
            idx = [0] * r
            while True:
                codes = tuple(stacks[i][idx[i]] for i in range(r))
                canon = _canonical_necklace(codes)
                if canon not in seen:
                    seen.add(canon)
                    yield _build(r, canon)
                pos = r - 1
                while pos >= 0:
                    idx[pos] += 1
                    if idx[pos] < len(stacks[pos]):
                        break
                    idx[pos] = 0
                    pos -= 1
                if pos < 0:
                    break

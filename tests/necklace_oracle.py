"""Reference enumeration of unicyclic classes: every tree assignment, then dedupe.

This is the enumerator `unilap.enumeration` used before it generated
canonical necklaces directly. For each girth r it walks every composition of
n into r tree sizes and every assignment of rooted trees to those sizes,
canonicalizes each assignment as the least of its 2r rotations and
reflections, and keeps a set of the canonical sequences already emitted.
It is slow and its memory grows with the class count, but it shares nothing
with the necklace generator except `rooted_trees`, so the two are compared
class by class in the tests.
"""

from collections.abc import Iterator

from unilap.enumeration import TreeCode, rooted_trees
from unilap.graphs import Graph


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


def oracle_unicyclic(n: int) -> Iterator[tuple[int, Graph]]:
    """(girth, graph) for every connected unicyclic class on n >= 3 vertices,
    girth ascending, each class at its first canonical appearance."""
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
                    yield r, _build(r, canon)
                pos = r - 1
                while pos >= 0:
                    idx[pos] += 1
                    if idx[pos] < len(stacks[pos]):
                        break
                    idx[pos] = 0
                    pos -= 1
                if pos < 0:
                    break

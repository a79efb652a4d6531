"""The fused leaf-to-root kernel that the shared leaf strip replaced, kept
as a test oracle.

This is the earlier unilap.spectra kernel, unchanged apart from its name:
it strips leaves from its own stack while it folds their pivots, tests the
2-core itself, pushes the neighbours of a paired cycle vertex back on the
stack so that an opened cycle is stripped like a tree, and walks each
intact cycle on its own. unilap.spectra now folds the strip of
graphs._cycle_forest in a separate pass (linalg._fold_pivots) and cuts an
opened cycle into arcs (linalg._close_cycle), so the two share only
linalg._cycle_inertia, which closes an intact cycle.
"""

from unilap.graphs import Graph
from unilap.linalg import Inertia, _cycle_inertia


def fused_inertia(g: Graph, p: int, q: int) -> Inertia | None:
    """Inertia of M = qL(g) - pI (q > 0) in Python ints, or None when some
    component of g has two cycles.

    Leaves are stripped in a stack (Jacobs and Trevisan, LAA 2011). A
    stripped vertex x carries its pivot as num[x] / den[x]: num[x] is the
    determinant of the block of M on x's subtree and den[x] the product of
    its attached children's nums, so folding a child y into x is
    num[x] * num[y] - q^2 den[y] den[x] over den[x] * num[y], with no
    division. A child with pivot 0 pairs with x (one negative, one positive
    eigenvalue), every further zero child is a zero eigenvalue, and x leaves
    its parent. Stripping leaves the 2-core; when that is a set of disjoint
    cycles, a cycle vertex paired this way opens its cycle into paths that
    are stripped like trees, and every intact cycle is closed by
    _cycle_inertia (Braga, Rodrigues and Trevisan extend the method to
    unicyclic graphs). Every num and den is a minor of M, so each has
    O(n) bits, and the cost is linear in n at an integer shift.
    """
    adj = g.adj
    qq = q * q
    num = [q * len(nbrs) - p for nbrs in adj]
    den = [1] * g.n
    zero_children = [0] * g.n
    left = [len(nbrs) for nbrs in adj]  # neighbours not yet stripped
    others = [sum(nbrs) for nbrs in adj]  # their sum: a leaf's is its parent
    stack = [v for v, k in enumerate(left) if k < 2]
    push = stack.append
    neg = zero = pos = 0
    core = None
    while True:
        while stack:
            x = stack.pop()
            u = -1
            if left[x]:
                left[x] = 0
                u = others[x]
                others[u] -= x
                left[u] -= 1
                if left[u] == 1:
                    push(u)
            a = num[x]
            if zero_children[x]:
                neg += 1
                pos += 1
                zero += zero_children[x] - 1
            elif not a:
                if u < 0:
                    zero += 1
                else:
                    zero_children[u] += 1
            else:
                b = den[x]
                if (a > 0) is (b > 0):
                    pos += 1
                else:
                    neg += 1
                if u >= 0:
                    num[u] = num[u] * a - qq * b * den[u]
                    den[u] *= a
        if core is not None:
            break  # the second pass stripped the paths of opened cycles
        core = [v for v, k in enumerate(left) if k]
        if any(left[v] != 2 for v in core):
            return None
        for v in core:
            if zero_children[v] and left[v] == 2:
                left[v] = 0
                neg += 1
                pos += 1
                zero += zero_children[v] - 1
                for w in adj[v]:
                    if left[w]:
                        others[w] -= v
                        left[w] -= 1
                        if left[w] == 1:
                            push(w)
    for start in core:
        if not left[start]:
            continue
        cycle = [start]
        left[start] = 0
        prev, v = start, next(w for w in adj[start] if left[w])
        while v != start:
            cycle.append(v)
            left[v] = 0
            prev, v = v, others[v] - prev
        # a pivot keeps its value when num and den both change sign
        nums = [num[v] if den[v] > 0 else -num[v] for v in cycle]
        counts = Inertia(*_cycle_inertia(nums, [abs(den[v]) for v in cycle], q))
        neg += counts.negatives
        zero += counts.zeros
        pos += counts.positives
    return Inertia(neg, zero, pos)

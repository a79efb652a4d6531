"""The bracelet walk of unilap.enumeration before its last slot started at a[1].

This is the earlier enumeration._bracelets, unchanged: the last slot took
every rank of the remaining size from a[t - p] up, and the bracelet filter
alone dropped the sequences with a[r-1] < a[1].
enumeration._bracelets now starts the last slot at max(a[t - p], a[1]) and
skips it when no rank of that size reaches the bound; both must emit the
same sequences in the same order, girth by girth.
"""

from bisect import bisect_left
from collections.abc import Iterator

from unilap.enumeration import _Alphabet


def _bracelets(n: int, r: int, alpha: _Alphabet) -> Iterator[list[int]]:
    """Each bracelet of r ranks whose sizes sum to n, as its least sequence,
    in lexicographic order. The yielded list is reused: copy it to keep it.

    An iterative FKM walk: depth t picks a[t] from the ranks >= a[t - p]
    that leave room for the open slots, where p[t] is the period of the
    prefix a[:t] (p stays when a[t] repeats a[t - p], else it becomes t + 1).
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
        if left < fill:
            t -= 1
            continue
        period[t], rem[t] = p, left
        lst = by_size[left] if t == r - 1 else capped[left - fill + floor[a[0]]]
        cands[t], pos[t] = lst, bisect_left(lst, a[t - p])


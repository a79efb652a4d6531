"""Explicit integer eigenvectors certifying that 1 is a Laplacian eigenvalue.

Each constructor builds the closed-form vector for its family, applies the
Laplacian in exact integer arithmetic, and refuses to return anything that
does not satisfy L v = v on the nose. The verification is the point: a
returned WitnessVector is a machine-checked certificate.

The two period-6 sign patterns (1-based index i):

    pattern A: 1, 0, -1, -1, 0, 1, ...   (i mod 6 = 1, 2, 3, 4, 5, 0)
    pattern B: 1, 1, 0, -1, -1, 0, ...

Pattern A on a path whose order is divisible by 3 is an eigenvector for
eigenvalue 1; patterns A and B on a cycle whose order is divisible by 6 are
two independent such eigenvectors.
"""

from dataclasses import dataclass

from .errors import InternalConsistencyError, InvalidParameterError
from .graphs import CompassParams, Graph, make_compass, make_cycle, make_lollipop, make_path
from .spectra import laplacian_apply


_PATTERN_A = (1, 0, -1, -1, 0, 1)  # one period, i = 1..6
_PATTERN_B = (1, 1, 0, -1, -1, 0)


def _repeat(period: tuple[int, ...], n: int) -> list[int]:
    """The first n entries of period repeated, as a list."""
    return list((period * (n // len(period) + 1))[:n])


@dataclass(frozen=True)
class WitnessVector:
    """Integer vector v with L(g) v = eigenvalue * v, checked exactly."""

    entries: tuple[int, ...]
    eigenvalue: int
    construction: str


def _certified(g: Graph, entries: list[int], construction: str) -> WitnessVector:
    if not any(entries):
        raise InternalConsistencyError(f"{construction}: witness vector is zero")
    if laplacian_apply(g, entries) != entries:
        raise InternalConsistencyError(
            f"{construction}: vector fails L v = v on {g.n} vertices"
        )
    return WitnessVector(tuple(entries), 1, construction)


def path_one_vector(n: int) -> WitnessVector:
    """Pattern A along a path with 3 | n."""
    if n <= 0 or n % 3 != 0:
        raise InvalidParameterError(f"need positive n divisible by 3, got {n}")
    return _certified(make_path(n), _repeat(_PATTERN_A, n), "path-pattern")


def cycle_one_vectors(n: int) -> tuple[WitnessVector, WitnessVector]:
    """Patterns A and B around a cycle with 6 | n; independent by construction."""
    if n <= 0 or n % 6 != 0:
        raise InvalidParameterError(f"need positive n divisible by 6, got {n}")
    g = make_cycle(n)
    wa = _certified(g, _repeat(_PATTERN_A, n), "cycle-pattern-a")
    wb = _certified(g, _repeat(_PATTERN_B, n), "cycle-pattern-b")
    # entries 1,2 are (1, 0) vs (1, 1): a 2x2 minor of determinant 1
    if wa.entries[0] * wb.entries[1] == wa.entries[1] * wb.entries[0]:
        raise InternalConsistencyError("cycle witnesses are not independent")
    return wa, wb


def lollipop_one_witness(n: int, r: int) -> WitnessVector | None:
    """Eigenvalue-1 witness on the lollipop, when one exists in closed form.

    Three constructions, keyed on r mod 6 (indices per the generator's
    labeling, cycle first then tail):

    * r = 0 (mod 6): pattern B on the cycle, zero on the tail.
    * r = 1 (mod 6) and 3 | n: pattern A along the unrolled path obtained
      by deleting the cycle-closing edge.
    * r = 3 (mod 6) and n = 1 (mod 3): pattern B on the cycle continued by
      -2 times pattern B on the tail.

    Returns None for every other parameter combination.
    """
    if not 3 <= r < n:
        raise InvalidParameterError(f"need 3 <= r < n, got n={n} r={r}")
    g = make_lollipop(n, r)
    if r % 6 == 0:
        return _certified(g, _repeat(_PATTERN_B, r) + [0] * (n - r), "cycle-block")
    if r % 6 == 1 and n % 3 == 0:
        return _certified(g, _repeat(_PATTERN_A, n), "unrolled-path")
    if r % 6 == 3 and n % 3 == 1:
        vec = _repeat(_PATTERN_B, r) + [-2 * x for x in _repeat(_PATTERN_B, n - r)]
        return _certified(g, vec, "scaled-tail")
    return None


def compass_one_witness(p: CompassParams) -> WitnessVector | None:
    """Pattern B on the compass cycle block when 6 | r and r' = r/2, else None.

    The attachment points both carry a zero of the pattern, so the vector
    extends by zeros across both tails.
    """
    p.validate()
    if p.r % 6 != 0 or p.r_prime != p.r // 2:
        return None
    g = make_compass(p)
    vec = [0] * p.t + _repeat(_PATTERN_B, p.r) + [0] * p.s
    return _certified(g, vec, "compass-cycle-block")

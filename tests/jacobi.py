"""The cyclic Jacobi eigensolver that numpy.linalg.eigvalsh replaced, kept as a test oracle.

This is the earlier unilap.spectra.spectrum_float, unchanged: plain Python
Jacobi rotations on the float Laplacian, sharing no code with LAPACK.
"""

import math

import numpy as np

from unilap.errors import InvalidParameterError
from unilap.graphs import Graph
from unilap.spectra import laplacian_rows


class NumericFailure(RuntimeError):
    """The floating-point eigensolver failed to converge."""


def spectrum_float(g: Graph, tol: float = 1e-10, max_sweeps: int = 100) -> list[float]:
    """All Laplacian eigenvalues by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm drops below tol; the
    returned values are the sorted diagonal.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    n = g.n
    if n == 1:
        return [0.0]
    a = np.array(laplacian_rows(g), dtype=float)
    # entries below this threshold stay: their total weight is within tol,
    # and rotating on them risks overflow in the angle computation
    skip_below = tol / (2.0 * n)
    mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = float(np.sqrt((a[mask] ** 2).sum()))
        if off < tol:
            return sorted(float(a[i, i]) for i in range(n))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip_below:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
    raise NumericFailure(f"Jacobi sweep cap {max_sweeps} hit before off-norm < {tol}")

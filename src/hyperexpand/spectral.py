"""Adjacency spectra and the spectral expansion bounds for regular graphs.

The default LAPACK route uses the graph's structure: a bipartite graph has
A = [[0, B], [B^T, 0]], so its spectrum is +-sigma(B) plus ||L| - |R||
zeros, read from the singular values of the |L| x |R| biadjacency block B;
any other graph gets a dense symmetric eigensolve of A. A cyclic Jacobi
rotation solver on the full matrix is kept as an independent reference
route; tests cross-check the routes against each other and against
analytic spectra. Every route is dense and capped at MAX_DENSE_N vertices,
the slow Jacobi route at MAX_JACOBI_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import BipartiteExpander, Graph, bipartition, is_k_regular

DEFAULT_TOLERANCE = 1e-8
# Largest vertex count any route densifies: an 8192^2 float64 matrix is 512 MiB.
MAX_DENSE_N = 8192
# Largest vertex count the Jacobi route takes. Its Python rotation loop is
# O(n^3) per sweep: on a 2-vCPU VM a 4-regular graph takes 1.1 s at 128
# vertices and 5.7 s at 256, and did not finish in minutes at 1000.
MAX_JACOBI_N = 512
_JACOBI_MAX_SWEEPS = 60


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge; carries the residual norm."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NotRegularError(ValueError):
    """Operation requires a k-regular graph."""


def check_tolerance(tolerance: float) -> None:
    """Reject a tolerance outside (0, 1), NaN and infinities included.

    At or above 1 the trivial band k(1 - tolerance) is <= 0, so every
    eigenvalue would count as trivial; at 0 Jacobi can never converge.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(off * off)))


def jacobi_eigenvalues(
    matrix: np.ndarray, tolerance: float, max_sweeps: int = _JACOBI_MAX_SWEEPS
) -> np.ndarray:
    """Cyclic Jacobi rotations until the off-diagonal Frobenius norm < tolerance.

    Unconditionally convergent on symmetric input; eigenvalue error is
    bounded by the final off-diagonal norm.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_eigenvalues needs a square matrix")
    if not np.allclose(a, a.T):
        raise ValueError("jacobi_eigenvalues needs a symmetric matrix")
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    for _ in range(max_sweeps):
        off = _offdiag_norm(a)
        if off < tolerance:
            break
        # Rotations below this size cannot help reach the target this sweep.
        skip = tolerance / (2.0 * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
    else:
        residual = _offdiag_norm(a)
        raise EigensolverError(
            f"Jacobi sweeps exhausted ({max_sweeps}), "
            f"off-diagonal norm {residual:.3e} >= tolerance {tolerance:.3e}",
            residual=residual,
        )
    return np.sort(np.diag(a))[::-1].copy()


def _bipartite_eigenvalues(b: np.ndarray) -> np.ndarray:
    """Descending +-sigma(B) plus ||L| - |R|| zeros, every zero written
    +0.0, for the |L| x |R| block B of A = [[0, B], [B^T, 0]]."""
    sv = np.linalg.svdvals(b) + 0.0  # descending; + 0.0 turns a -0.0 into +0.0
    zeros = np.zeros(abs(b.shape[0] - b.shape[1]))
    return np.concatenate([sv, zeros, (0.0 - sv)[::-1]])


def _side_block(g: Graph, side: list[int]) -> np.ndarray:
    """The block B of a two-coloured g, one scatter of its arcs: rows are
    the side-0 vertices, columns the side-1 vertices, both in id order."""
    right = np.array(side, dtype=bool)
    pos = np.where(right, np.cumsum(right), np.cumsum(~right)) - 1
    src, dst = g.arcs()
    keep = ~right[src]
    b = np.zeros((g.n - int(right.sum()), int(right.sum())), dtype=np.float64)
    b[pos[src[keep]], pos[dst[keep]]] = 1.0
    return b


def adjacency_eigenvalues(
    g: Graph | BipartiteExpander, tolerance: float = DEFAULT_TOLERANCE, method: str = "auto", side=...
) -> np.ndarray:
    """All n adjacency eigenvalues, sorted descending.

    method: "lapack", "jacobi" (cyclic rotations on the full matrix), or
    "auto" (lapack).  The lapack route takes the singular values of the
    biadjacency block when g is two-coloured, so the n x n matrix is
    never built, and a dense symmetric eigensolve of the full matrix
    otherwise; both are backward stable, each eigenvalue within
    O(eps * max degree).  An expander's block comes straight from its
    matchings (left vertices are the rows); a Graph is two-coloured by
    bipartition(g), or by side when the caller already holds it.  Raises
    ValueError above MAX_DENSE_N vertices, and for jacobi above
    MAX_JACOBI_N.
    """
    if g.n < 1:
        raise ValueError("eigenvalues need n >= 1")
    if method not in ("auto", "lapack", "jacobi"):
        raise ValueError(f"unknown method {method!r}")
    if g.n > MAX_DENSE_N:
        raise ValueError(
            f"graph has n={g.n} vertices; dense eigensolves are capped at "
            f"MAX_DENSE_N={MAX_DENSE_N}"
        )
    expander = isinstance(g, BipartiteExpander)
    if method == "jacobi":
        if g.n > MAX_JACOBI_N:
            raise ValueError(
                f"graph has n={g.n} vertices; the Jacobi route is capped at "
                f"MAX_JACOBI_N={MAX_JACOBI_N}"
            )
        return jacobi_eigenvalues((g.to_graph() if expander else g).adjacency_matrix(), tolerance)
    if not expander and side is ...:
        side = bipartition(g)
    try:
        if expander:
            return _bipartite_eigenvalues(g.biadjacency().T)
        if side is not None:
            return _bipartite_eigenvalues(_side_block(g, side))
        eigs = np.linalg.eigvalsh(g.adjacency_matrix())
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverError(f"dense eigensolve failed: {exc}", residual=math.nan)
    return eigs[::-1].copy()


def nontrivial_lambda(
    eigenvalues, k: int, tolerance: float = DEFAULT_TOLERANCE
) -> float | None:
    """max |lambda_i| over eigenvalues with |lambda_i| < k, None if all trivial.

    The trivial band is relative: |lambda| >= k*(1 - tolerance) counts as
    +-k, so numerical eigenvalues near the trivial ones do not leak in.
    """
    band = k * (1.0 - tolerance)
    best: float | None = None
    for lam in eigenvalues:
        mag = abs(float(lam))
        if mag < band and (best is None or mag > best):
            best = mag
    return best


def alon_boppana_reference(k: int) -> float:
    """Asymptotic floor 2*sqrt(k-1) for the largest nontrivial eigenvalue.

    Diagnostic only: the finite-size correction term is not modelled.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return 2.0 * math.sqrt(k - 1.0)


def chung_diameter_bound(n: int, k: int, lam: float, bipartite: bool) -> float:
    """Spectral diameter bound alpha + log(2n/alpha) / log((k + sqrt(k^2-l^2))/l).

    alpha is 2 for bipartite graphs and 1 otherwise.  At lam == 0 the
    denominator diverges and the bound collapses to exactly alpha.
    """
    if lam < 0.0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    if lam >= k:
        raise ValueError(f"lambda must be < k, got lambda={lam}, k={k}")
    alpha = 2.0 if bipartite else 1.0
    if lam == 0.0:
        return alpha
    denom = math.log((k + math.sqrt(k * k - lam * lam)) / lam)
    return alpha + math.log(2.0 * n / alpha) / denom


def expander_constant_lower_bound(k: int, lambda_2: float) -> float:
    """(k - lambda_2) / 2, the spectral-gap expander constant."""
    if lambda_2 > k:
        raise ValueError(f"lambda_2={lambda_2} exceeds k={k}")
    return (k - lambda_2) / 2.0


def dodziuk_bounds(k: int, lam: float) -> tuple[float, float]:
    """Edge-expansion sandwich ((k - l)/2, sqrt(2k(k - l))) for k-regular graphs."""
    if not (0.0 <= lam <= k):
        raise ValueError(f"lambda must be in [0, k], got lambda={lam}, k={k}")
    return (k - lam) / 2.0, math.sqrt(2.0 * k * (k - lam))


@dataclass(frozen=True)
class SpectralReport:
    """Full spectral certificate for one k-regular graph."""

    eigenvalues: tuple[float, ...]
    k: int
    lambda_nontrivial: float | None
    lambda_2: float | None
    is_bipartite: bool
    is_connected: bool
    ramanujan: bool | None
    chung_bound: float | None
    alon_boppana_ref: float | None
    expander_constant_lb: float | None
    dodziuk_lower: float | None
    dodziuk_upper: float | None
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "k": self.k,
            "lambda_nontrivial": self.lambda_nontrivial,
            "lambda_2": self.lambda_2,
            "is_bipartite": self.is_bipartite,
            "is_connected": self.is_connected,
            "ramanujan": self.ramanujan,
            "chung_bound": self.chung_bound,
            "alon_boppana_ref": self.alon_boppana_ref,
            "expander_constant_lb": self.expander_constant_lb,
            "dodziuk_lower": self.dodziuk_lower,
            "dodziuk_upper": self.dodziuk_upper,
            "tolerance": self.tolerance,
        }


def analyze(
    g: Graph | BipartiteExpander, tolerance: float = DEFAULT_TOLERANCE, method: str = "auto"
) -> SpectralReport:
    """Compute the SpectralReport for a k-regular graph.

    An expander is analysed as its derived graph, from its matchings: it
    is k-regular and bipartite with the left side first, so neither the
    degree check nor the two-colouring runs. The Ramanujan verdict and
    the diameter bound are None for disconnected graphs (detected via
    the multiplicity of eigenvalue k) and when every eigenvalue is
    trivial.  A nontrivial lambda below the tolerance is treated as
    exactly 0 in the diameter bound, where the formula's limit is
    exactly alpha, and a lambda_2 within the band around k is at most k.
    """
    check_tolerance(tolerance)
    if isinstance(g, BipartiteExpander):
        k, bip = g.k, True
        eigs = adjacency_eigenvalues(g, tolerance, method)
    else:
        k = is_k_regular(g)
        if k is None:
            raise NotRegularError(
                f"analyze requires a k-regular graph (degrees {sorted(set(g.degrees()))})"
            )
        side = bipartition(g) if g.n <= MAX_DENSE_N else None  # refused before two-colouring
        eigs = adjacency_eigenvalues(g, tolerance, method, side=side)
        bip = side is not None
    band = tolerance * max(1.0, float(k))  # a numerical eigenvalue this close to k is k
    connected = sum(1 for e in eigs if e >= k - band) == 1  # k's multiplicity counts components
    lam = nontrivial_lambda(eigs, k, tolerance)
    lambda_2 = float(eigs[1]) if g.n >= 2 else None
    if lambda_2 is not None and k < lambda_2 <= k + band:
        lambda_2 = float(k)  # a second eigenvalue k (disconnected), a few ulps high

    ramanujan: bool | None = None
    chung: float | None = None
    if connected and lam is not None:
        ramanujan = lam <= alon_boppana_reference(k) + tolerance
        lam_for_bound = 0.0 if lam <= tolerance else lam
        chung = chung_diameter_bound(g.n, k, lam_for_bound, bip)

    dod_lower = dod_upper = None
    if lam is not None:
        dod_lower, dod_upper = dodziuk_bounds(k, min(lam, float(k)))

    return SpectralReport(
        eigenvalues=tuple(float(x) for x in eigs),
        k=k,
        lambda_nontrivial=lam,
        lambda_2=lambda_2,
        is_bipartite=bip,
        is_connected=connected,
        ramanujan=ramanujan,
        chung_bound=chung,
        alon_boppana_ref=alon_boppana_reference(k) if k >= 1 else None,
        expander_constant_lb=(
            expander_constant_lower_bound(k, lambda_2) if lambda_2 is not None else None
        ),
        dodziuk_lower=dod_lower,
        dodziuk_upper=dod_upper,
        tolerance=tolerance,
    )

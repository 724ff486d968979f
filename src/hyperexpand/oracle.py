"""Brute-force ground truth for vertex and edge expansion on small graphs.

Enumerates every admissible subset (nonempty, at most half the vertices)
with a subset-DP over bitmasks, so the n <= 24 cap runs in seconds.
Ratios are kept as exact integer pairs; ties are broken by smallest
subset size, then lexicographically smallest subset, so witnesses are
reproducible and independent of float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, bfs_diameter, bipartition, is_connected, is_k_regular
from .spectral import (
    DEFAULT_TOLERANCE,
    NotRegularError,
    adjacency_eigenvalues,
    check_tolerance,
    chung_diameter_bound,
    dodziuk_bounds,
    expander_constant_lower_bound,
    nontrivial_lambda,
)

MAX_ORACLE_N = 24

STATUS_PASS = "pass"
STATUS_KNOWN = "known-discrepancy"
STATUS_UNEXPECTED = "unexpected"
STATUS_SKIPPED = "skipped"


class OracleDomainError(ValueError):
    """Input outside the exhaustive-enumeration contract."""


@dataclass(frozen=True)
class ExpansionWitness:
    """Minimizing subset for a boundary ratio, with the exact rational value."""

    ratio: float
    numerator: int
    denominator: int
    subset: tuple[int, ...]
    boundary_size: int
    mode: str  # "vertex" | "edge"

    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "subset": list(self.subset),
            "boundary_size": self.boundary_size,
            "mode": self.mode,
        }


def _check_domain(g: Graph) -> None:
    if g.n == 0:
        raise OracleDomainError("expansion is undefined for the empty graph")
    if g.n == 1:
        raise OracleDomainError(
            "n=1 admits no subset with |A| <= n/2; expansion needs n >= 2"
        )
    if g.n > MAX_ORACLE_N:
        raise OracleDomainError(
            f"exhaustive enumeration capped at n <= {MAX_ORACLE_N}, got n={g.n}"
        )


def _neighbor_masks(g: Graph) -> list[int]:
    return [sum(1 << v for v in nbrs) for nbrs in g.adjacency]


def _vertex_tables(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, outer-boundary sizes) for every subset mask of 0..2^n-1."""
    n = g.n
    nbr = _neighbor_masks(g)
    total = 1 << n
    union = np.zeros(total, dtype=np.uint32)
    for b in range(n):
        m = 1 << b
        blk = union.reshape(-1, 2 * m)
        blk[:, m:] = blk[:, :m] | np.uint32(nbr[b])
    masks = np.arange(total, dtype=np.uint32)
    sizes = np.bitwise_count(masks)
    boundary = np.bitwise_count(union & ~masks)
    return sizes, boundary


def _edge_tables(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, edge-boundary sizes) for every subset mask of 0..2^n-1."""
    n = g.n
    nbr = _neighbor_masks(g)
    deg = g.degrees()
    total = 1 << n
    masks = np.arange(total, dtype=np.uint32)
    internal = np.zeros(total, dtype=np.int32)
    degsum = np.zeros(total, dtype=np.int32)
    for b in range(n):
        m = 1 << b
        iblk = internal.reshape(-1, 2 * m)
        dblk = degsum.reshape(-1, 2 * m)
        mblk = masks.reshape(-1, 2 * m)
        iblk[:, m:] = iblk[:, :m] + np.bitwise_count(mblk[:, :m] & np.uint32(nbr[b]))
        dblk[:, m:] = dblk[:, :m] + deg[b]
    sizes = np.bitwise_count(masks)
    boundary = degsum - 2 * internal
    return sizes, boundary


def _bit_reverse(vals: np.ndarray, n: int) -> np.ndarray:
    rev = np.zeros(vals.shape, dtype=np.int64)
    v = vals.astype(np.int64)
    for b in range(n):
        rev |= ((v >> b) & 1) << (n - 1 - b)
    return rev


def _mask_to_subset(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _pick_witness(sizes: np.ndarray, boundary: np.ndarray, n: int, mode: str) -> ExpansionWitness:
    admissible = (sizes >= 1) & (sizes <= n // 2)
    ratios = np.where(admissible, boundary / np.maximum(sizes, 1), np.inf)
    fmin = float(ratios.min())
    # Distinct ratios with denominators <= n/2 are separated by >> 1e-9,
    # so the float filter captures exactly the rational minimum.
    candidates = np.nonzero(ratios <= fmin + 1e-9)[0]
    smin = int(sizes[candidates].min())
    finalists = candidates[sizes[candidates] == smin]
    winner = int(finalists[np.argmax(_bit_reverse(finalists, n))])
    b = int(boundary[winner])
    frac = Fraction(b, smin)
    return ExpansionWitness(
        ratio=b / smin,
        numerator=frac.numerator,
        denominator=frac.denominator,
        subset=_mask_to_subset(winner),
        boundary_size=b,
        mode=mode,
    )


def vertex_expansion(g: Graph) -> ExpansionWitness:
    """Exact expander constant: min |outer boundary| / |A| over |A| <= n/2.

    Disconnected graphs yield ratio 0 with a zero-boundary witness.
    """
    _check_domain(g)
    sizes, boundary = _vertex_tables(g)
    return _pick_witness(sizes, boundary, g.n, "vertex")


def edge_expansion(g: Graph) -> ExpansionWitness:
    """Exact edge expansion h(G): min |edge boundary| / |A| over |A| <= n/2."""
    _check_domain(g)
    sizes, boundary = _edge_tables(g)
    return _pick_witness(sizes, boundary, g.n, "edge")


@dataclass(frozen=True)
class BoundCheck:
    name: str
    bound: float | None
    observed: float | None
    status: str
    detail: dict | None = None

    def to_dict(self) -> dict:
        d: dict = {
            "name": self.name,
            "bound": self.bound,
            "observed": self.observed,
            "status": self.status,
        }
        if self.detail is not None:
            d["detail"] = self.detail
        return d


@dataclass(frozen=True)
class BoundReport:
    """Spectral bounds checked against brute-force/BFS ground truth."""

    n: int
    k: int
    is_bipartite: bool
    lambda_nontrivial: float | None
    lambda_2: float
    diameter: int
    vertex: ExpansionWitness
    edge: ExpansionWitness
    checks: tuple[BoundCheck, ...]
    tolerance: float

    def check(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def has_unexpected(self) -> bool:
        return any(c.status == STATUS_UNEXPECTED for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "is_bipartite": self.is_bipartite,
            "lambda_nontrivial": self.lambda_nontrivial,
            "lambda_2": self.lambda_2,
            "diameter": self.diameter,
            "vertex_expansion": self.vertex.to_dict(),
            "edge_expansion": self.edge.to_dict(),
            "checks": [c.to_dict() for c in self.checks],
            "tolerance": self.tolerance,
        }


def verify_bounds(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> BoundReport:
    """Check the diameter bound, the edge-expansion sandwich, and the
    spectral vertex-expansion inequality against exhaustive ground truth.

    The vertex-expansion inequality is a diagnostic, not an assertion: it
    fails on bipartite graphs (one full side achieves ratio 1 against a
    larger spectral bound), so bipartite violations are flagged
    known-discrepancy rather than unexpected.
    """
    check_tolerance(tolerance)
    k = is_k_regular(g)
    if k is None:
        raise NotRegularError("verify_bounds requires a k-regular graph")
    if g.n < 2:
        raise OracleDomainError("verify_bounds needs n >= 2")
    if not is_connected(g):
        raise ValueError("verify_bounds requires a connected graph")
    _check_domain(g)

    eigs = adjacency_eigenvalues(g, tolerance)
    lam = nontrivial_lambda(eigs, k, tolerance)
    lambda_2 = float(eigs[1])
    bip = bipartition(g) is not None
    diameter = int(bfs_diameter(g))
    vertex = vertex_expansion(g)
    edge = edge_expansion(g)
    checks: list[BoundCheck] = []

    # Diameter vs the spectral bound.
    if lam is None:
        checks.append(BoundCheck("chung_diameter", None, float(diameter), STATUS_SKIPPED))
    else:
        lam_bound = 0.0 if lam <= tolerance else lam
        bound = chung_diameter_bound(g.n, k, lam_bound, bip)
        ok = diameter <= bound + 1e-9
        checks.append(
            BoundCheck(
                "chung_diameter",
                bound,
                float(diameter),
                STATUS_PASS if ok else STATUS_UNEXPECTED,
            )
        )

    # Edge expansion inside the spectral sandwich.
    if lam is None:
        checks.append(BoundCheck("dodziuk_interval", None, edge.ratio, STATUS_SKIPPED))
    else:
        lower, upper = dodziuk_bounds(k, min(lam, float(k)))
        ok = lower - tolerance <= edge.ratio <= upper + tolerance
        checks.append(
            BoundCheck(
                "dodziuk_interval",
                None,
                edge.ratio,
                STATUS_PASS if ok else STATUS_UNEXPECTED,
                detail={"lower": lower, "upper": upper},
            )
        )

    # Vertex expansion vs (k - lambda_2)|V \ A| / |V|, per admissible subset.
    sizes, boundary = _vertex_tables(g)
    admissible = (sizes >= 1) & (sizes <= g.n // 2)
    gap = k - lambda_2
    with np.errstate(invalid="ignore"):
        ratios = boundary / np.maximum(sizes, 1)
        rhs = gap * (g.n - sizes.astype(np.float64)) / g.n
        margins = np.where(admissible, ratios - rhs, np.inf)
    worst = int(np.argmin(margins))
    worst_margin = float(margins[worst])
    violated = worst_margin < -tolerance
    if not violated:
        status = STATUS_PASS
    elif bip:
        status = STATUS_KNOWN
    else:
        status = STATUS_UNEXPECTED
    checks.append(
        BoundCheck(
            "spectral_vertex_expansion",
            expander_constant_lower_bound(k, lambda_2),
            vertex.ratio,
            status,
            detail={
                "worst_margin": worst_margin,
                "worst_subset": list(_mask_to_subset(worst)),
                "worst_ratio": float(ratios[worst]),
                "worst_bound": float(rhs[worst]),
            },
        )
    )

    return BoundReport(
        n=g.n,
        k=k,
        is_bipartite=bip,
        lambda_nontrivial=lam,
        lambda_2=lambda_2,
        diameter=diameter,
        vertex=vertex,
        edge=edge,
        checks=tuple(checks),
        tolerance=tolerance,
    )

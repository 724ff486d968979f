"""Brute-force ground truth for vertex and edge expansion on small graphs.

Enumerates every admissible subset (nonempty, at most half the vertices)
in one pass over the bitmasks. Masks are cut into chunks by their high
bits: a subset-DP builds the neighbour-union and edge-boundary tables of
the low bits once, and each chunk combines them with its high part, so
the vertex witness, the edge witness and the worst margin of the
spectral vertex-expansion inequality come from the same pass. Working
memory is O(2^_CHUNK_BITS), not O(2^n); the n <= 24 cap runs in well
under a second. Ratios are compared exactly as integers; ties are broken
by smallest subset size, then lexicographically smallest subset, so
witnesses are reproducible and independent of float rounding.
"""

from __future__ import annotations

import math
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

# Subsets are enumerated in chunks that share their high n - _CHUNK_BITS
# bits, so the working tables hold 2^_CHUNK_BITS entries whatever n is.
_CHUNK_BITS = 15

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


def _mask_to_subset(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _low_tables(nbr: list[int], deg: list[int], low: int):
    """Tables over the subsets of vertices 0..low-1, ordered by size and,
    within a size, lexicographically by subset.

    Returns (masks, neighbour unions, edge-boundary sizes, starts), where
    the subsets of size j occupy starts[j]:starts[j + 1]. Doubling DP: the
    subsets containing vertex b are the ones below 2^b, each plus b.
    """
    masks = np.arange(1 << low, dtype=np.uint32)
    union = np.zeros(1, dtype=np.uint32)
    cut = np.zeros(1, dtype=np.int32)
    rev = np.zeros(1, dtype=np.uint32)  # masks bit-reversed within low bits
    for b in range(low):
        m = np.uint32(nbr[b])
        union = np.concatenate((union, union | m))
        cut = np.concatenate((cut, cut + deg[b] - 2 * np.bitwise_count(masks[: 1 << b] & m)))
        rev = np.concatenate((rev, rev | np.uint32(1 << (low - 1 - b))))
    sizes = np.bitwise_count(masks)
    # Between subsets of equal size, the larger bit-reversed mask is the
    # lexicographically smaller subset.
    order = np.lexsort((~rev, sizes))
    starts = np.searchsorted(sizes[order], np.arange(low + 2)).tolist()
    return masks[order], union[order], cut[order], starts


def _scan(g: Graph, gap: float | None = None):
    """One pass over every admissible subset: (vertex, edge, worst).

    vertex and edge are the witnesses' (ratio key, size, subset, boundary).
    With gap given, worst is (margin, mask, ratio, bound) for the first
    mask minimising |outer boundary| / |A| - gap * (n - |A|) / n; otherwise
    None.
    """
    n = g.n
    half = n // 2
    nbr = _neighbor_masks(g)
    deg = g.degrees()
    low = min(n, _CHUNK_BITS)
    lo, union, cut, starts = _low_tables(nbr, deg, low)
    outside = ~lo
    # cross[i, x]: edges between high vertex low + i and the low subset lo[x]
    cross = np.zeros((n - low, lo.size), dtype=np.uint8)
    for i, m in enumerate(nbr[low:]):
        cross[i] = np.bitwise_count(lo & np.uint32(m))
    scale = math.lcm(*range(1, half + 1))  # ratio b/s as the integer b * (scale // s)
    best = [(math.inf,), (math.inf,)]  # vertex, edge
    worst = (math.inf,)
    for hi in range(1 << (n - low)):
        p = hi.bit_count()
        if p > half:
            continue
        high = [i for i in range(n - low) if hi >> i & 1]
        hi_mask = hi << low
        hi_union = 0
        hi_cut = 0
        for i in high:
            m = nbr[low + i]
            hi_union |= m
            hi_cut += deg[low + i] - (m & hi_mask).bit_count()
        top = min(low, half - p)
        end = starts[top + 1]
        keep = np.uint32(((1 << n) - 1) ^ hi_mask)
        vert = np.bitwise_count((union[:end] | hi_union) & outside[:end] & keep)
        edge = cut[:end] + hi_cut - 2 * cross[high, :end].sum(axis=0, dtype=np.int32)
        for j in range(0 if p else 1, top + 1):
            a, z = starts[j], starts[j + 1]
            size = j + p
            for w, bnd in enumerate((vert, edge)):
                x = a + int(bnd[a:z].argmin())
                b = int(bnd[x])
                key = (b * (scale // size), size)
                if key <= best[w][:2]:
                    cand = (*key, _mask_to_subset(hi_mask | int(lo[x])), b)
                    best[w] = min(best[w], cand)
                if w == 0 and gap is not None:
                    # At a fixed size the margin grows with the boundary, so
                    # the segment's smallest boundary holds its smallest margin.
                    ratio = b / size
                    bound = gap * (n - size) / n
                    margin = ratio - bound
                    if margin <= worst[0]:
                        first = int(lo[a:z][vert[a:z] == b].min())
                        worst = min(worst, (margin, hi_mask | first, ratio, bound))
    vertex, edge = best
    return vertex, edge, (worst if gap is not None else None)


def _witness(key: tuple, mode: str) -> ExpansionWitness:
    _, size, subset, b = key
    frac = Fraction(b, size)
    return ExpansionWitness(
        ratio=b / size,
        numerator=frac.numerator,
        denominator=frac.denominator,
        subset=subset,
        boundary_size=b,
        mode=mode,
    )


def vertex_expansion(g: Graph) -> ExpansionWitness:
    """Exact expander constant: min |outer boundary| / |A| over |A| <= n/2.

    Disconnected graphs yield ratio 0 with a zero-boundary witness.
    """
    _check_domain(g)
    vertex, _, _ = _scan(g)
    return _witness(vertex, "vertex")


def edge_expansion(g: Graph) -> ExpansionWitness:
    """Exact edge expansion h(G): min |edge boundary| / |A| over |A| <= n/2."""
    _check_domain(g)
    _, edge, _ = _scan(g)
    return _witness(edge, "edge")


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
    gap = k - lambda_2
    vertex_key, edge_key, worst = _scan(g, gap)
    vertex = _witness(vertex_key, "vertex")
    edge = _witness(edge_key, "edge")
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
    worst_margin, worst_mask, worst_ratio, worst_bound = worst
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
                "worst_subset": list(_mask_to_subset(worst_mask)),
                "worst_ratio": worst_ratio,
                "worst_bound": worst_bound,
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

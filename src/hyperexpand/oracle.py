"""Brute-force ground truth for vertex and edge expansion on small graphs.

Enumerates every admissible subset (nonempty, at most half the vertices)
in one pass over the bitmasks. Masks are cut into chunks by their high
bits; a subset-DP builds the tables of the low bits once. A chunk costs
three array ops and two reduceats: the outer boundary of A is the size of
its closed neighbourhood less |A|, one OR and one popcount; chunks come in
Gray-code order, so the edge-boundary table moves by one precomputed row;
and one reduceat per table gives each subset size's minimum, so only a
size that can tie or beat the best so far is searched. Both witnesses and
the worst margin of the spectral vertex-expansion inequality come from
the same pass. Working memory is O(2^_CHUNK_BITS), not O(2^n); the scan
takes about 20 ms on the 24-vertex Nauru graph (2-vCPU VM). Ratios are
compared exactly as integers; ties are broken by smallest subset size,
then lexicographically smallest subset, so witnesses are reproducible and
independent of float rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, bfs_diameter, is_k_regular
from .spectral import DEFAULT_TOLERANCE, NotRegularError, analyze, check_tolerance

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
    return [sum(1 << v for v in nbrs) for nbrs in g.adjacency_lists()]


def _mask_to_subset(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


@functools.cache
def _subset_order(low: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The subsets of vertices 0..low-1 as a read-only array of masks,
    ordered by size and, within a size, lexicographically by subset; and
    the starts, where the subsets of size j occupy starts[j]:starts[j + 1].
    """
    rev = np.zeros(1, dtype=np.uint32)  # masks bit-reversed within low bits
    for b in range(low):
        rev = np.concatenate((rev, rev | np.uint32(1 << (low - 1 - b))))
    sizes = np.bitwise_count(np.arange(1 << low, dtype=np.uint32))
    # Between subsets of equal size, the larger bit-reversed mask is the
    # lexicographically smaller subset.
    order = np.lexsort((~rev, sizes)).astype(np.uint32)
    order.flags.writeable = False
    return order, tuple(np.searchsorted(sizes[order], np.arange(low + 2)).tolist())


def _low_tables(nbr: list[int], deg: list[int], low: int):
    """Tables over the subsets of vertices 0..low-1, in _subset_order.

    Returns (masks, neighbour unions, edge-boundary sizes, starts).
    Doubling DP: the subsets containing vertex b are the ones below 2^b,
    each plus b.
    """
    masks, starts = _subset_order(low)
    ids = np.arange(1 << low, dtype=np.uint32)
    union = np.zeros(1, dtype=np.uint32)
    cut = np.zeros(1, dtype=np.int16)
    for b in range(low):
        m = np.uint32(nbr[b])
        union = np.concatenate((union, union | m))
        cut = np.concatenate((cut, cut + deg[b] - 2 * np.bitwise_count(ids[: 1 << b] & m)))
    return masks, union[masks], cut[masks], starts


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
    lo, union, edge, starts = _low_tables(nbr, deg, low)
    # |N(A) \ A| is the size of A's closed neighbourhood less |A|, and |A| is
    # fixed within a size segment.
    closure = union | lo
    # edge[x] is kept at cut(lo[x]) - 2 |E(lo[x], hi)| for the current chunk
    # hi; adding or removing high vertex low + i moves it by rows[i].
    rows = [2 * np.bitwise_count(lo & np.uint32(m)).astype(np.int16) for m in nbr[low:]]
    buf, vert = np.empty_like(lo), np.empty(lo.size, dtype=np.uint8)
    scale = math.lcm(*range(1, half + 1))  # ratio b/s as the integer b * (scale // s)
    best = [(math.inf,), (math.inf,)]  # vertex, edge
    worst = (math.inf,)
    for step in range(1 << (n - low)):
        # Gray-code order; every result is a minimum, so the order is free.
        hi = step ^ step >> 1
        if step:
            i = (step & -step).bit_length() - 1
            (np.subtract if hi >> i & 1 else np.add)(edge, rows[i], out=edge)
        p = hi.bit_count()
        if p > half:
            continue
        hi_mask = hi << low
        hi_union = hi_cut = 0
        for i in range(n - low):
            if hi >> i & 1:
                m = nbr[low + i]
                hi_union |= m
                hi_cut += deg[low + i] - (m & hi_mask).bit_count()
        top = min(low, half - p)
        end = starts[top + 1]
        j0 = 0 if p else 1
        # vert[x]: closed-neighbourhood size of lo[x] | hi; then each size's minima.
        np.bitwise_count(np.bitwise_or(closure[:end], hi_union | hi_mask, out=buf[:end]), out=vert[:end])
        vmins = np.minimum.reduceat(vert[:end], starts[j0 : top + 1]).tolist()
        emins = np.minimum.reduceat(edge[:end], starts[j0 : top + 1]).tolist()
        for j, vmin, emin in zip(range(j0, top + 1), vmins, emins):
            a, z = starts[j], starts[j + 1]
            size = j + p
            b = vmin - size
            # Adding a constant moves no argmin: each segment's first
            # minimum is its lexicographically smallest minimiser.
            for w, bnd, bw in ((0, vert, b), (1, edge, emin + hi_cut)):
                key = (bw * (scale // size), size)
                if key <= best[w][:2]:
                    x = a + int(bnd[a:z].argmin())
                    best[w] = min(best[w], (*key, _mask_to_subset(hi_mask | int(lo[x])), bw))
            if gap is not None:
                # At a fixed size the margin grows with the boundary, so
                # the segment's smallest boundary holds its smallest margin.
                ratio = b / size
                bound = gap * (n - size) / n
                margin = ratio - bound
                if margin <= worst[0]:
                    first = int(lo[a:z][vert[a:z] == vmin].min())
                    worst = min(worst, (margin, hi_mask | first, ratio, bound))
    return (*best, worst if gap is not None else None)


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

    The spectral side, the diameter bound included, and connectivity
    come from analyze's report; a disconnected graph raises ValueError.

    The vertex-expansion inequality is a diagnostic, not an assertion: it
    fails on bipartite graphs (one full side achieves ratio 1 against a
    larger spectral bound), so bipartite violations are flagged
    known-discrepancy rather than unexpected.
    """
    check_tolerance(tolerance)
    if is_k_regular(g) is None:
        raise NotRegularError("verify_bounds requires a k-regular graph")
    if g.n < 2:
        raise OracleDomainError("verify_bounds needs n >= 2")
    _check_domain(g)

    spec = analyze(g, tolerance)
    if not spec.is_connected:
        raise ValueError("verify_bounds requires a connected graph")
    k, lam, bip = spec.k, spec.lambda_nontrivial, spec.is_bipartite
    diameter = int(bfs_diameter(g))
    vertex_key, edge_key, worst = _scan(g, k - spec.lambda_2)
    vertex = _witness(vertex_key, "vertex")
    edge = _witness(edge_key, "edge")

    # Diameter vs the spectral bound, and edge expansion inside the
    # spectral sandwich; both need a nontrivial lambda.
    if lam is None:
        chung = BoundCheck("chung_diameter", None, float(diameter), STATUS_SKIPPED)
        dodziuk = BoundCheck("dodziuk_interval", None, edge.ratio, STATUS_SKIPPED)
    else:
        bound = spec.chung_bound
        ok = diameter <= bound + 1e-9
        chung = BoundCheck("chung_diameter", bound, float(diameter), STATUS_PASS if ok else STATUS_UNEXPECTED)
        lower, upper = spec.dodziuk_lower, spec.dodziuk_upper
        ok = lower - tolerance <= edge.ratio <= upper + tolerance
        dodziuk = BoundCheck(
            "dodziuk_interval",
            None,
            edge.ratio,
            STATUS_PASS if ok else STATUS_UNEXPECTED,
            detail={"lower": lower, "upper": upper},
        )

    # Vertex expansion vs (k - lambda_2)|V \ A| / |V|, per admissible subset.
    worst_margin, worst_mask, worst_ratio, worst_bound = worst
    if worst_margin >= -tolerance:
        status = STATUS_PASS
    elif bip:
        status = STATUS_KNOWN
    else:
        status = STATUS_UNEXPECTED
    expansion = BoundCheck(
        "spectral_vertex_expansion",
        spec.expander_constant_lb,
        vertex.ratio,
        status,
        detail={
            "worst_margin": worst_margin,
            "worst_subset": list(_mask_to_subset(worst_mask)),
            "worst_ratio": worst_ratio,
            "worst_bound": worst_bound,
        },
    )

    return BoundReport(
        n=g.n,
        k=k,
        is_bipartite=bip,
        lambda_nontrivial=lam,
        lambda_2=spec.lambda_2,
        diameter=diameter,
        vertex=vertex,
        edge=edge,
        checks=(chung, dodziuk, expansion),
        tolerance=tolerance,
    )

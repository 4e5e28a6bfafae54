"""Sufficient-condition checkers for Hamiltonicity.

Each check_* function decides one published sufficient condition. Checkers
never construct cycles and never decide Hamiltonicity on their own; a False
answer only means "this particular condition does not apply".

All fractional bounds are decided by exact cross-multiplied integer
comparison. No floating point enters any verdict; SIGMA_INFINITY passes
every sigma bound by convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Mapping, Sequence

from .errors import TooSmall
from .graph import SIGMA_INFINITY, KPartiteGraph, bits, stats


def edge_threshold(k: int, n: int) -> int:
    """Minimum edge count that guarantees a Hamilton cycle in an n-balanced
    k-partite graph.

    The general value is C(k,2)*n^2 - (k-1)*n + 2; the single degenerate
    input (k, n) = (2, 1) has threshold 1.
    """
    if k < 2 or n < 1:
        raise TooSmall(f"threshold undefined for k={k}, n={n}")
    if (k, n) == (2, 1):
        return 1
    return comb(k, 2) * n * n - (k - 1) * n + 2


def check_ore(adj: Sequence[int]) -> tuple[bool, tuple[int, int] | None]:
    """Degree-sum condition over all nonadjacent vertex pairs.

    Passes when every nonadjacent pair u, v has degree(u) + degree(v) >= N.
    Returns (verdict, witness); the witness is the lexicographically first
    violating pair, or None when the condition holds.
    """
    n_vertices = len(adj)
    if n_vertices < 3:
        raise TooSmall(f"degree-sum condition needs at least 3 vertices, got {n_vertices}")
    degs = [row.bit_count() for row in adj]
    for u in range(n_vertices):
        non = ~adj[u] & ~((1 << (u + 1)) - 1) & ((1 << n_vertices) - 1)
        for v in bits(non):
            if degs[u] + degs[v] < n_vertices:
                return False, (u, v)
    return True, None


def check_theorem2_edges(adj: Sequence[int]) -> bool:
    """Edge-count condition on a general simple graph: |E| >= C(N-1, 2) + 2."""
    n_vertices = len(adj)
    if n_vertices < 3:
        raise TooSmall(f"edge-count condition needs at least 3 vertices, got {n_vertices}")
    return sum(map(int.bit_count, adj)) // 2 >= comb(n_vertices - 1, 2) + 2


def _parity_scaled_bound(k: int, n: int) -> tuple[int, int]:
    """Return (scale, scaled_bound) for the degree-sum family of bounds.

    For odd k the raw bound is (k - 2/(k+1)) * n, i.e. (k*(k+1) - 2) * n
    over scale k+1; for even k it is (k - 4/(k+2)) * n, i.e.
    (k*(k+2) - 4) * n over scale k+2. The minimum-degree variant is exactly
    half, handled by doubling the tested quantity instead.
    """
    if k % 2 == 1:
        return k + 1, (k * (k + 1) - 2) * n
    return k + 2, (k * (k + 2) - 4) * n


def check_theorem4_min_degree(g: KPartiteGraph) -> bool:
    """Minimum-degree condition: delta > (k/2 - 1/(k+1))*n for odd k,
    delta > (k/2 - 2/(k+2))*n for even k. Exact integer comparison."""
    delta = min(row.bit_count() for row in g.adj)
    scale, bound = _parity_scaled_bound(g.k, g.n)
    return 2 * scale * delta > bound


def check_theorem5_sigma(g: KPartiteGraph) -> bool:
    """Cross-part degree-sum condition: sigma > (k - 2/(k+1))*n for odd k,
    sigma > (k - 4/(k+2))*n for even k. SIGMA_INFINITY always passes."""
    return meets_sigma_bound(g.k, g.n, stats(g).sigma)


def meets_sigma_bound(k: int, n: int, sigma: int | float) -> bool:
    """check_theorem5_sigma on an already computed sigma (GraphStats.sigma)."""
    if sigma == SIGMA_INFINITY:
        return True
    scale, bound = _parity_scaled_bound(k, n)
    return scale * int(sigma) > bound


@dataclass(frozen=True)
class ConditionReport:
    """All condition verdicts for one graph, plus the witnesses behind them.

    violations maps a failing condition name to one concrete violating
    vertex or pair; edge-count conditions carry no entry because the stats
    themselves are the witness.
    """

    k: int
    n: int
    edge_count: int
    min_degree: int
    sigma: int | float
    edge_threshold_t1: int
    meets_theorem1: bool
    meets_ore: bool
    meets_theorem2_edges: bool
    meets_theorem4_min_degree: bool
    meets_theorem5_sigma: bool
    meets_theorem11: bool
    violations: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def _pairs(self) -> list[tuple[str, str]]:
        sigma_text = "inf" if self.sigma == SIGMA_INFINITY else str(int(self.sigma))
        out = [
            ("k", str(self.k)),
            ("n", str(self.n)),
            ("edge_count", str(self.edge_count)),
            ("min_degree", str(self.min_degree)),
            ("sigma", sigma_text),
            ("edge_threshold_t1", str(self.edge_threshold_t1)),
            ("meets_theorem1", str(self.meets_theorem1).lower()),
            ("meets_ore", str(self.meets_ore).lower()),
            ("meets_theorem2_edges", str(self.meets_theorem2_edges).lower()),
            ("meets_theorem4_min_degree", str(self.meets_theorem4_min_degree).lower()),
            ("meets_theorem5_sigma", str(self.meets_theorem5_sigma).lower()),
            ("meets_theorem11", str(self.meets_theorem11).lower()),
        ]
        for name in sorted(self.violations):
            out.append((f"violation_{name}", ",".join(map(str, self.violations[name]))))
        return out

    def as_block(self) -> str:
        """Multi-line key=value block."""
        return "\n".join(f"{key}={val}" for key, val in self._pairs()) + "\n"

    def as_record(self) -> str:
        """Single-line machine record."""
        return " ".join(f"{key}={val}" for key, val in self._pairs())


def evaluate(g: KPartiteGraph) -> ConditionReport:
    """Run every checker on g and collect verdicts with witnesses.

    The two general-graph conditions need at least 3 vertices; on smaller
    graphs they are reported False without a witness.
    """
    st = stats(g)
    threshold = edge_threshold(g.k, g.n)
    violations: dict[str, tuple[int, ...]] = {}

    if g.num_vertices >= 3:
        ore_ok, ore_witness = check_ore(g.adj)
        if not ore_ok and ore_witness is not None:
            violations["ore"] = ore_witness
        t2_ok = check_theorem2_edges(g.adj)
    else:
        ore_ok = False
        t2_ok = False

    # the first vertex of minimum degree witnesses both degree conditions
    low = next(v for v, row in enumerate(g.adj) if row.bit_count() == st.min_degree)
    t4_ok = check_theorem4_min_degree(g)
    if not t4_ok:
        violations["theorem4_min_degree"] = (low,)

    t5_ok = meets_sigma_bound(g.k, g.n, st.sigma)
    if not t5_ok:
        violations["theorem5_sigma"] = st.sigma_pair

    t11_ok = st.edge_count >= threshold - 1 and st.min_degree >= 2
    if not t11_ok and st.min_degree < 2:
        violations["theorem11"] = (low,)

    return ConditionReport(
        k=g.k,
        n=g.n,
        edge_count=st.edge_count,
        min_degree=st.min_degree,
        sigma=st.sigma,
        edge_threshold_t1=threshold,
        meets_theorem1=st.edge_count >= threshold,
        meets_ore=ore_ok,
        meets_theorem2_edges=t2_ok,
        meets_theorem4_min_degree=t4_ok,
        meets_theorem5_sigma=t5_ok,
        meets_theorem11=t11_ok,
        violations=violations,
    )


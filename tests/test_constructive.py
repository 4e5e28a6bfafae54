"""Tests for the constructive solver.

The solver pieces each have a narrow contract (close a path, run the
degree-sum closure, stitch a matching); these are exercised directly. solve()
itself is checked against the brute-force oracle on everything small
enough, plus determinism and trace-vocabulary invariants.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import golden_cases
from conftest import all_subsets_of_size, host_edges, partite_graphs, perm_hamiltonian
from golden_cases import GOLDEN_LITERALS, LITERAL_IDS, hub_instance, one_short
from kpham import (
    MAX_VERTICES,
    ConstructionFailed,
    HypothesisNotMet,
    InvalidPath,
    SolveResult,
    TooSmall,
    canonical_cycle,
    check_ore,
    close_hamilton_path,
    edge_threshold,
    from_edge_list,
    is_hamilton_cycle,
    new_complete,
    ore_build_cycle,
    random_graph_at_edge_count,
    remove_edges,
    solve,
    solve_theorem11,
    stats,
    tight_non_hamiltonian,
    validate_hamilton_cycle,
)
from kpham import constructive
from kpham.conditions import meets_sigma_bound
from kpham.constructive import TRACE_TAGS, _closure_cycle, _route
from kpham.oracle import is_hamiltonian

# nine edges, min degree 2, yet vertices 0 and 2 both see exactly {4, 5},
# so any cycle would close 0-4-2-5-0 early: genuinely non-hamiltonian
STUBBORN_32_EDGES = [
    (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
    (2, 4), (2, 5), (3, 4), (3, 5),
]


class TestSerialize:
    def test_cycle_with_trace(self):
        r = SolveResult((0, 2, 1, 3), ("BaseK2", "LemmaClosure"), None)
        assert r.serialize() == "cycle 0 2 1 3\ntrace BaseK2,LemmaClosure\n"

    def test_failure_with_empty_trace(self):
        r = SolveResult(None, (), "HypothesisNotMet")
        assert r.serialize() == "none HypothesisNotMet\ntrace\n"


class TestClosePath:
    def test_adjacent_ends(self):
        g = new_complete(2, 2)
        cyc = close_hamilton_path(g.adj, [0, 2, 1, 3])
        assert cyc == (0, 2, 1, 3)
        # three vertices, the fewest a cycle needs
        assert close_hamilton_path(new_complete(3, 1).adj, [0, 1, 2]) == (0, 1, 2)

    def test_crossing_pair_rescue(self):
        # path 0-1-2-3-4-5 with chords making each end degree 3: ends stay
        # nonadjacent, so only the crossing pair at 0~2, 5~1 can close it
        rows = from_edge_list(
            6, 1,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (0, 3), (1, 5), (2, 5)],
        ).adj
        cyc = close_hamilton_path(rows, [0, 1, 2, 3, 4, 5])
        validate_hamilton_cycle(rows, cyc)

    def test_low_degree_sum_refused(self):
        rows = from_edge_list(4, 1, [(0, 1), (1, 2), (2, 3)]).adj
        with pytest.raises(HypothesisNotMet, match="degree sum"):
            close_hamilton_path(rows, [0, 1, 2, 3])

    @pytest.mark.parametrize(("rows", "path"), [((0b10, 0b01), [0, 1]), ((0,), [0])])
    def test_fewer_than_three_vertices(self, rows, path):
        # Two vertices joined by one edge would "close" into (0, 1), which
        # validate_hamilton_cycle rejects.
        with pytest.raises(TooSmall, match="at least 3 vertices"):
            close_hamilton_path(rows, path)

    def test_not_a_hamilton_path(self):
        g = new_complete(2, 2)
        with pytest.raises(InvalidPath):
            close_hamilton_path(g.adj, [0, 2, 1])

    def test_seeded_batch(self):
        # random Ore-ish hosts: take a random hamilton path of a dense
        # graph and ask for the closure
        rng = random.Random(99)
        for _ in range(100):
            nv = rng.randrange(4, 11)
            perm = list(range(nv))
            rng.shuffle(perm)
            edges = {tuple(sorted(p)) for p in zip(perm, perm[1:])}
            want = nv * (nv - 1) * 2 // 5
            while len(edges) < want:
                u, v = rng.sample(range(nv), 2)
                edges.add((min(u, v), max(u, v)))
            rows = from_edge_list(nv, 1, edges).adj
            degs = [r.bit_count() for r in rows]
            if degs[perm[0]] + degs[perm[-1]] < nv:
                continue
            cyc = close_hamilton_path(rows, perm)
            validate_hamilton_cycle(rows, cyc)


class TestOreRotation:
    def test_complete(self):
        g = new_complete(3, 1)
        assert ore_build_cycle(g.adj) == (0, 1, 2)

    def test_witness_failure(self):
        rows = from_edge_list(4, 1, [(0, 1), (1, 2), (2, 3)]).adj
        with pytest.raises(HypothesisNotMet, match=r"\(0, 2\)"):
            ore_build_cycle(rows)

    def test_dense_random_graphs(self):
        rng = random.Random(7)
        built = 0
        while built < 60:
            nv = rng.randrange(4, 13)
            pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
            keep = rng.sample(pairs, int(len(pairs) * 0.8))
            rows = from_edge_list(nv, 1, keep).adj
            degs = [r.bit_count() for r in rows]
            if any(
                degs[u] + degs[v] < nv
                for u in range(nv)
                for v in range(u + 1, nv)
                if not rows[u] >> v & 1
            ):
                continue
            cyc = ore_build_cycle(rows)
            validate_hamilton_cycle(rows, cyc)
            full = (1 << nv) - 1
            others = [full ^ (1 << u) for u in range(nv)]
            assert cyc == _restart_closure_cycle(rows, others, nv, range(nv))
            built += 1


def _restart_closure_cycle(adj, cand, bound, start, joins=None):
    """Reference closure: after each join, rescan from scratch for the
    first qualifying pair in _closure_cycle's order, (A) an absent start
    edge in start order, (B) a pair at the lowest end of an absent start
    edge that has one, lowest partner first, (C) the lexicographically
    first pair, until every start edge is present; None when no pair
    qualifies before that. Then undo the joins in reverse order with index
    walks and the first crossing pair. Appends each joined pair to joins
    when one is given."""
    rows = list(adj)
    count = len(rows)

    def qualifies(u, v):
        return (
            cand[u] >> v & 1
            and not rows[u] >> v & 1
            and rows[u].bit_count() + rows[v].bit_count() >= bound
        )

    ring = list(zip([start[-1], *start[:-1]], start))

    def absent():
        return [(u, v) for u, v in ring if not rows[u] >> v & 1]

    added = []
    while gaps := absent():
        ends = sorted({w for gap in gaps for w in gap})
        everyone = range(count)
        pair = next(
            chain(
                (gap for gap in gaps if qualifies(*gap)),
                ((u, v) for u in ends for v in everyone if qualifies(u, v)),
                ((u, v) for u in everyone for v in everyone if qualifies(u, v)),
            ),
            None,
        )
        if pair is None:
            break
        u, v = pair
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        added.append(pair)
    if joins is not None:
        joins.extend(added)
    if absent():
        return None
    cycle = list(start)
    for u, v in reversed(added):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        i = cycle.index(u)
        if cycle[(i + 1) % count] == v:
            path = [cycle[(i - s) % count] for s in range(count)]
        elif cycle[(i - 1) % count] == v:
            path = [cycle[(i + s) % count] for s in range(count)]
        else:
            continue
        first, last = path[0], path[-1]
        cross = next(
            (j for j in range(2, count - 1)
             if rows[first] >> path[j] & 1 and rows[last] >> path[j - 1] & 1),
            None,
        )
        if cross is None:
            return None
        cycle = path[:cross] + path[cross:][::-1]
    return canonical_cycle(cycle)


def _full_closure(adj, cand, bound):
    """The rows once every qualifying candidate pair is joined, joining in
    passes over all pairs until a pass joins none."""
    rows = list(adj)
    grown = True
    while grown:
        grown = False
        for u, v in combinations(range(len(rows)), 2):
            if (
                cand[u] >> v & 1
                and not rows[u] >> v & 1
                and rows[u].bit_count() + rows[v].bit_count() >= bound
            ):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                grown = True
    return rows


class _CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestClosure:
    STALL = "degree-sum closure did not complete"

    @settings(max_examples=200, deadline=None)
    @given(partite_graphs(max_k=4, max_n=3))
    # The all-pairs closure stalls on this graph, whose own edges already
    # form the cross-part start cycle 0, 2, 4, 1, 3, 5.
    @example(from_edge_list(3, 2, [(0, 2), (0, 5), (1, 3), (1, 4), (2, 4), (3, 5)]))
    # Two graphs whose closure from the start 0, 1, ..., 5 mixes (A) and
    # (B) joins: the second joins (2, 3) by (A), then (1, 3) by (B) at end 1.
    @example(from_edge_list(2, 3, [
        (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
    ]))
    @example(from_edge_list(3, 2, [
        (0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 4), (3, 4), (3, 5),
    ]))
    def test_matches_restart_closure(self, g):
        # Below the threshold the closure often stops short or joins pairs
        # in an order that threshold inputs never reach; both must match
        # the rescan-from-scratch reference exactly, and a stop short, where
        # the reference returns None, must raise. Whatever the join order,
        # it stops short exactly when some start edge stays out of the full
        # closure (Bondy & Chvatal), here joined pass by pass.
        count = g.num_vertices
        if count < 3:
            return
        full = (1 << count) - 1
        others = [full ^ (1 << u) for u in range(count)]
        shapes = [(others, count, list(range(count)))]
        if g.n >= 2:
            # the solver's cross-part start, which uses no same-part edge
            host = [p * g.n + i for i in range(g.n) for p in range(g.k)]
            shapes.append((others, count, host))
        if g.k == 2 and g.n >= 2:
            part0 = (1 << g.n) - 1
            alternating = [v for i in range(g.n) for v in (i, g.n + i)]
            shapes.append(([full ^ part0] * g.n + [part0] * g.n, g.n + 1, alternating))
        for cand, bound, start in shapes:
            want = _restart_closure_cycle(g.adj, cand, bound, start)
            closed = _full_closure(g.adj, cand, bound)
            ring = zip(start, start[1:] + start[:1])
            assert (want is None) == any(not closed[u] >> v & 1 for u, v in ring)
            if want is None:
                with pytest.raises(ConstructionFailed, match=self.STALL):
                    _closure_cycle(g.adj, cand, bound, start)
            else:
                assert _closure_cycle(g.adj, cand, bound, start) == want

    @pytest.mark.parametrize(
        ("k", "n", "edges", "want"),
        [
            # at threshold
            (2, 3, [(0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4),
                    (2, 5)], (0, 3, 1, 5, 2, 4)),
            # two edges below threshold
            (3, 2, [(0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 4), (3, 4),
                    (3, 5)], (0, 2, 4, 1, 5, 3)),
        ],
    )
    def test_rewind_literal(self, k, n, edges, want):
        # A lexicographic closure had to go back to an earlier row on these
        # graphs. The gap-targeted closure joins by the start's gaps instead,
        # so its join rows are out of ascending order here without a rewind
        # (rows 1, 0, 3, 4, 5 and 2, 1, 0, 0, 5, 4), and it must still carry
        # start back to the same cycle of g.
        g = from_edge_list(k, n, edges)
        count = g.num_vertices
        full = (1 << count) - 1
        cand = [full ^ (1 << u) for u in range(count)]
        joins = []
        start = list(range(count))
        assert _restart_closure_cycle(g.adj, cand, count, start, joins) == want
        rows = [u for u, _ in joins]
        assert rows != sorted(rows)
        assert _closure_cycle(g.adj, cand, count, list(start)) == want

    def test_join_order_literal(self):
        # Degrees 4 4 5 2 6 4 2 5 at bound 8, start 0, 1, ..., 7 with the
        # gaps (0, 1), (2, 3), (4, 5) and (6, 7). (A) joins (0, 1) and
        # (4, 5). Both gaps left then sum to 7 and no end has a partner
        # summing to 8, so (C) joins (1, 5), the first pair off the ends.
        # That lifts 5 to degree 6: (B) joins (3, 5) at end 3, (A) closes
        # (2, 3), (B) joins (6, 1) at end 6, and (A) closes (6, 7).
        g = from_edge_list(4, 2, [
            (0, 2), (0, 4), (0, 5), (0, 7), (1, 2), (1, 3), (1, 4), (1, 7),
            (2, 4), (2, 5), (2, 7), (3, 4), (4, 6), (4, 7), (5, 6), (5, 7),
        ])
        cand = [0xFF ^ (1 << u) for u in range(8)]
        start = list(range(8))
        joins = []
        want = (0, 2, 1, 3, 4, 6, 5, 7)
        assert _restart_closure_cycle(g.adj, cand, 8, start, joins) == want
        assert joins == [(0, 1), (4, 5), (1, 5), (3, 5), (2, 3), (6, 1), (6, 7)]
        assert _closure_cycle(g.adj, cand, 8, start) == want

    def test_stall_all_pairs(self):
        # Vertex 0 of the tight instance keeps one neighbour, so no pair at
        # it reaches the all-pairs bound N and the closure stops short.
        g = tight_non_hamiltonian(3, 2)
        count = g.num_vertices
        full = (1 << count) - 1
        cand = [full ^ (1 << u) for u in range(count)]
        with pytest.raises(ConstructionFailed, match=self.STALL):
            _closure_cycle(g.adj, cand, count, list(range(count)))

    def test_stall_bipartite(self):
        # The same shape at k == 2 stops short of the bound n + 1.
        g = tight_non_hamiltonian(2, 3)
        n = g.n
        part0 = (1 << n) - 1
        part1 = ((1 << 2 * n) - 1) ^ part0
        alternating = [v for i in range(n) for v in (i, n + i)]
        with pytest.raises(ConstructionFailed, match=self.STALL):
            _closure_cycle(g.adj, [part1] * n + [part0] * n, n + 1, alternating)

    @pytest.mark.parametrize("start", [(0, 3, 1, 4, 2, 5), (4, 1, 3, 0, 5, 2)])
    def test_gap_free_start(self, start):
        # The graph is the start cycle itself, so no join is made and no
        # candidate row is read; the second start is not in canonical form.
        ring = zip(start, start[1:] + start[:1])
        g = from_edge_list(2, 3, ring)
        cand = _CountingList([0b111000] * 3 + [0b000111] * 3)
        assert _closure_cycle(g.adj, cand, 4, start) == canonical_cycle(start)
        assert cand.reads == 0

    @pytest.mark.parametrize(("k", "n"), [(4, 16), (3, 21)])
    @pytest.mark.parametrize("family", ["rand", "hub"])
    def test_work_bound(self, k, n, family):
        # (A) reads no candidate row, and (B) and (C) read one per row they
        # scan. On these instances (A) makes every rand join and most hub
        # joins, so the closure reads 0 (rand) and 35-50 (hub) rows for
        # 60-94 joins, well inside the bound.
        rng = random.Random(4016 if family == "rand" else 321)
        if family == "rand":
            g = random_graph_at_edge_count(k, n, edge_threshold(k, n), rng)
        else:
            g = hub_instance(k, n, rng)
        count = g.num_vertices
        full = (1 << count) - 1
        cand = _CountingList(full ^ (1 << u) for u in range(count))
        assert _closure_cycle(g.adj, cand, count, list(range(count))) == (
            _restart_closure_cycle(g.adj, list(cand), count, range(count))
        )
        joins = comb(count, 2) - g.edge_count
        assert cand.reads <= 4 * joins + 3 * count, cand.reads


def _hub_graph(k: int, n: int, rng: random.Random):
    """A threshold graph spending the whole deletion budget (k-1)n - 2 on
    edges at 1-3 hub vertices, drawn as perfbench/run.py's adversarial
    draws it."""
    budget = (k - 1) * n - 2
    hubs = rng.sample(range(k * n), rng.randint(1, 3))
    cuts = sorted(rng.sample(range(1, budget), len(hubs) - 1))
    dropped = set()
    for hub, a, b in zip(hubs, [0, *cuts], [*cuts, budget]):
        incident = [(min(hub, w), max(hub, w)) for w in range(k * n) if w // n != hub // n]
        dropped.update(rng.sample([e for e in incident if e not in dropped], b - a))
    return remove_edges(new_complete(k, n), sorted(dropped))[0]


def _solve_n64_instances(seed: int):
    """(family, graph) for the solve-n64 benchmark instances of a seed, as
    perfbench/run.py draws them: 12 rounds over seven shapes near 64
    vertices, a rand and a hub graph each."""
    rng = random.Random(seed)
    shapes = ((2, 32), (4, 16), (8, 8), (16, 4), (32, 2), (3, 21), (64, 1))
    for _ in range(12):
        for k, n in shapes:
            yield "rand", random_graph_at_edge_count(k, n, edge_threshold(k, n), rng)
            yield "hub", _hub_graph(k, n, rng)


def _route_closure(g):
    """(cand, bound, start) of the closure solve() runs on g."""
    k, n = g.k, g.n
    if k == 2 and n >= 2:
        part0 = (1 << n) - 1
        cand = [part0 << n] * n + [part0] * n
        return cand, n + 1, [v for i in range(n) for v in (i, n + i)]
    count = k * n
    full = (1 << count) - 1
    start = [p * n + i for i in range(n) for p in range(k)]
    return [full ^ (1 << u) for u in range(count)], count, start


@st.composite
def _hub_closures(draw):
    """(graph, bound): a hub graph on 6 to 64 vertices, with room for three
    hubs in its budget, and a bound near its route's. n is drawn down from
    the largest that fits, so most shapes sit near the cap."""
    k = draw(st.integers(2, 32))
    n = MAX_VERTICES // k - draw(st.integers(0, MAX_VERTICES // k - 1))
    assume((k - 1) * n >= 5)
    g = _hub_graph(k, n, random.Random(draw(st.integers(0, 2**32 - 1))))
    return g, _route_closure(g)[1] + draw(st.integers(-4, 1))


@st.composite
def _reach_closures(draw):
    """(graph, bound) whose first (B) or (C) join is at a row of degree
    bound or one or two above it. Vertex 0 is joined to every vertex of the
    other parts but one or two it keeps as open candidates (none may be
    needed under the all-pairs route at n >= 2, where its part-mates are
    candidates), and every other row has degree at most 5, so no gap or gap
    end reaches bound. Every open candidate of 0 keeps both its start edges,
    and 0 keeps its own, so none of them is a gap end and the ascending (C)
    scan meets row 0 first."""
    k = draw(st.one_of(st.just(2), st.integers(3, 16), st.integers(17, MAX_VERTICES)))
    # (k-1)n >= 16 keeps the degree of vertex 0 above twice the low rows'
    n = draw(st.integers(-(-16 // (k - 1)), MAX_VERTICES // k))
    count = k * n
    _, _, start = _route_closure(new_complete(k, n))
    cross = [w for w in range(n, count) if w not in (start[1], start[-1])]
    least = 1 if k == 2 or n == 1 else 0
    opened = draw(st.sets(st.sampled_from(cross), min_size=least, max_size=2))
    kept = opened | set(range(1, n)) if k > 2 else opened
    edges = {(0, w) for w in range(n, count) if w not in opened}
    for u, v in zip(start, start[1:] + start[:1]):
        if u in kept or v in kept:
            edges.add((min(u, v), max(u, v)))
    low = st.integers(1, count - 1)
    for u, v in draw(st.lists(st.tuples(low, low), max_size=2)):
        if u // n != v // n:
            edges.add((min(u, v), max(u, v)))
    g = from_edge_list(k, n, sorted(edges))
    return g, g.adj[0].bit_count() - draw(st.integers(0, 2))


class TestJoinCounts:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_hub_closures(), _reach_closures()))
    # (C) joins (3, 5) while deg[3] = 7 passes the bound 6, so row 3's
    # partners come from reach[0]: every open candidate.
    @example((from_edge_list(3, 3, [
        (0, 3), (1, 3), (2, 3), (2, 4), (2, 5), (3, 6), (4, 6), (5, 8),
    ]), 6))
    # At bound 7 on 6 vertices the one gap (3, 4) sums to 6 and every row's
    # partner mask is empty at the first (B) step.
    @example((_hub_graph(6, 1, random.Random(463)), 7))
    def test_hub_graphs_match_restart_closure(self, case):
        # The route's cand and start, on hub graphs with the bound moved by
        # up to 4 below and 1 above or on graphs built to join a row at or
        # past the bound: the join list and the cycle, or the error, match
        # _restart_closure_cycle, which rescans after every join.
        g, bound = case
        cand, _, start = _route_closure(g)
        want_joins, joins = [], []
        want = _restart_closure_cycle(g.adj, cand, bound, start, want_joins)
        if want is None:
            closed = list(g.adj)
            for u, v in want_joins:
                closed[u] |= 1 << v
                closed[v] |= 1 << u
            ring = zip(start, start[1:] + start[:1])
            stalled = any(not closed[u] >> v & 1 for u, v in ring)
            with pytest.raises(
                ConstructionFailed, match=TestClosure.STALL if stalled else "no crossing pair"
            ):
                _closure_cycle(g.adj, cand, bound, start, joins)
        else:
            assert _closure_cycle(g.adj, cand, bound, start, joins) == want
        assert joins == want_joins

    def test_solve_n64_family_totals(self):
        # solve() closes each benchmark instance with the reference's joins:
        # 154 over the 84 rand graphs and 766 over the 84 hub graphs of
        # seed 31337, where joining the lexicographically first pair made
        # 10 772 and 10 470.
        joins = {"rand": [], "hub": []}
        for family, g in _solve_n64_instances(31337):
            want = _restart_closure_cycle(g.adj, *_route_closure(g), joins[family])
            assert solve(g).cycle == want
        assert {family: len(pairs) for family, pairs in joins.items()} == {
            "rand": 154, "hub": 766,
        }

    def test_n1_joins_exactly_the_absent_start_edges(self):
        # At n = 1 the threshold implies the degree-sum condition, so every
        # absent start edge qualifies from the first step, and (A) joins
        # exactly those edges in start order, 1.8 per graph here.
        rng = random.Random(641)
        total = 0
        for _ in range(30):
            g = random_graph_at_edge_count(64, 1, edge_threshold(64, 1), rng)
            cand, bound, start = _route_closure(g)
            ring = zip([start[-1], *start[:-1]], start)
            gaps = [(u, v) for u, v in ring if not g.adj[u] >> v & 1]
            joins = []
            want = _restart_closure_cycle(g.adj, cand, bound, start, joins)
            assert joins == gaps
            assert solve(g).cycle == want
            total += len(joins)
        assert total == 55


class TestSolve:
    def test_too_small(self):
        r = solve(new_complete(2, 1))
        assert r.cycle is None and r.failure == "TooSmall"

    def test_below_threshold_refused_without_search(self):
        g = tight_non_hamiltonian(3, 2)
        r = solve(g)
        assert r.cycle is None
        assert r.failure == "HypothesisNotMet"
        assert r.trace == ()

    @pytest.mark.parametrize(
        ("k", "n"), [(2, 2), (2, 5), (3, 1), (3, 3), (4, 2), (5, 1), (4, 3), (6, 2)]
    )
    def test_complete_hosts(self, k, n):
        g = new_complete(k, n)
        r = solve(g)
        assert r.failure is None
        validate_hamilton_cycle(g.adj, r.cycle)
        assert r.cycle == canonical_cycle(r.cycle)

    def test_every_threshold_n1_graph(self):
        # The n = 1 route (see _route) relies on the edge threshold implying
        # the degree-sum condition; check it on all 8187 threshold (k,1)
        # graphs, k = 3..7.
        count = 0
        for k in range(3, 8):
            for size in range(edge_threshold(k, 1), len(host_edges(k, 1)) + 1):
                for g in all_subsets_of_size(k, 1, size):
                    assert check_ore(g.adj) == (True, None)
                    r = solve(g)
                    assert r.trace == ("BaseN1", "OreRotation")
                    validate_hamilton_cycle(g.adj, r.cycle)
                    count += 1
        assert count == 8187

    def test_n2_part_drop_family(self):
        # At n = 2 each instance drops the edge of a cross pair (low, high)
        # and 2k-5 more edges at that pair: the whole budget 2k-4. Most fail
        # the sigma bound, which once sent them through a part drop; the
        # all-pairs closure now builds every one of them by itself.
        rng = random.Random(2024)
        sigma_failures = 0
        for k in range(3, 13):
            host = new_complete(k, 2)
            for _ in range(40):
                low = rng.randrange(2 * k)
                high = rng.choice([w for w in range(2 * k) if w // 2 != low // 2])
                pair = (min(low, high), max(low, high))
                at_pair = [e for e in host.edges() if e != pair and set(e) & {low, high}]
                g, _ = remove_edges(host, [pair] + rng.sample(at_pair, 2 * k - 5))
                r = solve(g)
                validate_hamilton_cycle(g.adj, r.cycle)
                assert r.trace == ("BaseN2", "LemmaClosure")
                sigma_failures += not meets_sigma_bound(k, 2, stats(g).sigma)
        assert sigma_failures == 360

    def test_closure_alone_at_every_multipartite_shape(self):
        # Chvatal's condition holds at the threshold whenever k >= 3 and
        # n >= 2 (see _route), so the all-pairs closure builds every
        # seeded rand and hub graph at each such shape up to 64 vertices,
        # with no SearchFallback and no other branch.
        rng = random.Random(2024)
        shapes = 0
        for n in range(2, 22):
            want = ("BaseN2", "LemmaClosure") if n == 2 else ("LemmaClosure",)
            for k in range(3, 64 // n + 1):
                rand = random_graph_at_edge_count(k, n, edge_threshold(k, n), rng)
                for g in (rand, hub_instance(k, n, rng)):
                    r = solve(g)
                    validate_hamilton_cycle(g.adj, r.cycle)
                    assert r.trace == want
                shapes += 1
        assert shapes == 122

    @pytest.mark.parametrize(
        ("k", "n", "trace"),
        [
            (5, 1, ("BaseN1", "SearchFallback")),
            (2, 3, ("BaseK2", "SearchFallback")),
            (3, 2, ("BaseN2", "SearchFallback")),
            (3, 3, ("SearchFallback",)),
        ],
    )
    def test_dead_end_traces(self, monkeypatch, k, n, trace):
        # When the closure raises, each route's dead-end trace keeps its
        # first tag, if it has two, then SearchFallback, and the search
        # gives the cycle.
        def stall(*args):
            raise ConstructionFailed("stalled")

        monkeypatch.setattr(constructive, "_closure_cycle", stall)
        g = new_complete(k, n)
        want = canonical_cycle(constructive._search_hamilton(g.adj))
        assert solve(g) == SolveResult(want, trace, None)

    def test_deterministic(self):
        g, _ = remove_edges(new_complete(4, 3), [(0, 3), (1, 4), (2, 11), (5, 9)])
        first = solve(g)
        assert all(solve(g).serialize() == first.serialize() for _ in range(5))

    def test_trace_vocabulary(self):
        g, _ = remove_edges(new_complete(4, 3), [(0, 3), (0, 4), (0, 5), (1, 6)])
        r = solve(g)
        assert r.failure is None
        assert r.trace, "constructive run must record at least one branch"
        assert set(r.trace) <= TRACE_TAGS

    @settings(max_examples=120, deadline=None)
    @given(partite_graphs(max_k=4, max_n=3))
    def test_agrees_with_small_oracle(self, g):
        if (g.k, g.n) == (2, 1):
            return
        r = solve(g)
        if g.edge_count < edge_threshold(g.k, g.n):
            assert r.failure == "HypothesisNotMet"
            return
        assert r.cycle is not None, "threshold instance must be solved"
        validate_hamilton_cycle(g.adj, r.cycle)
        if g.num_vertices <= 8:
            assert perm_hamiltonian(g.adj)

    def test_star_damage_batch(self):
        # knock a near-budget star out of one vertex, plus scattered edges
        rng = random.Random(4242)
        for _ in range(80):
            k = rng.randrange(3, 5)
            n = rng.randrange(2, 4)
            g = new_complete(k, n)
            budget = (k - 1) * n - 2
            victim = rng.randrange(k * n)
            others = [v for v in range(k * n) if v // n != victim // n]
            rng.shuffle(others)
            drops = [(victim, w) for w in others[: budget - 1]]
            g, _ = remove_edges(g, drops)
            r = solve(g)
            assert r.failure is None
            validate_hamilton_cycle(g.adj, r.cycle)


def _adversarial_one_short(n: int):
    """(3, n) one edge short with minimum degree 2: vertex 3n-4 keeps only
    2n-6 and 2n-1, and (0, n + n//2) is dropped too."""
    hub = 3 * n - 4
    drop = [(w, hub) for w in range(2 * n) if w not in (2 * n - 6, 2 * n - 1)]
    return remove_edges(new_complete(3, n), drop + [(0, n + n // 2)])[0]


class TestSolveTheorem11:
    def test_at_threshold_delegates(self):
        g, _ = remove_edges(new_complete(3, 2), [(0, 2), (1, 4)])
        assert solve_theorem11(g).serialize() == solve(g).serialize()

    def test_one_short_with_good_degrees(self):
        g = from_edge_list(3, 2, STUBBORN_32_EDGES)
        # swap one edge to make a hamiltonian 9-edge sibling
        g2, _ = remove_edges(new_complete(3, 2), [(0, 2), (0, 3), (1, 4)])
        r = solve_theorem11(g2)
        assert r.failure is None
        validate_hamilton_cycle(g2.adj, r.cycle)
        assert r.trace == ("BaseN2", "LemmaClosure")

    def test_min_degree_one_refused(self):
        g = tight_non_hamiltonian(3, 2)
        r = solve_theorem11(g)
        assert r.failure == "HypothesisNotMet" and r.trace == ()

    def test_two_short_refused(self):
        g, _ = remove_edges(
            new_complete(3, 2), [(0, 2), (0, 3), (1, 2), (1, 3)]
        )
        assert solve_theorem11(g).failure == "HypothesisNotMet"

    def test_stubborn_instance_decided_negative(self):
        g = from_edge_list(3, 2, STUBBORN_32_EDGES)
        assert not is_hamiltonian(g).hamiltonian
        r = solve_theorem11(g)
        assert r.cycle is None
        assert r.failure == "NotHamiltonian"
        assert r.trace == ("BaseN2", "SearchFallback")

    def test_too_small(self):
        assert solve_theorem11(new_complete(2, 1)).failure == "TooSmall"

    def test_reroute_failure_falls_back(self, caplog):
        # One edge short of the (3,3) threshold, with vertex 4 down to three
        # neighbours. The absent start edges (4, 7) and (5, 8) sum to 7 and
        # 8 < 9, so the closure first joins (4, 3) and (4, 6) at end 4, then
        # (4, 7), then (5, 3) at end 5 and (5, 8). It builds the cycle with
        # no search and logs nothing.
        caplog.set_level(logging.INFO, logger="kpham.constructive")
        g, _ = remove_edges(
            new_complete(3, 3), [(4, 6), (4, 7), (4, 8), (5, 7), (5, 8)]
        )
        assert solve_theorem11(g).serialize() == (
            "cycle 0 4 1 8 3 6 5 2 7\ntrace LemmaClosure\n"
        )
        assert not [r for r in caplog.records if r.name == "kpham.constructive"]

    def test_second_virtual_edge_after_reroute_failure(self, caplog):
        # One edge short of the (3,3) threshold. The one absent start edge,
        # (4, 7), sums to 8 < 9 until the closure joins (4, 5) at end 4;
        # it then joins (4, 7) and builds the cycle with no search.
        caplog.set_level(logging.INFO, logger="kpham.constructive")
        g, _ = remove_edges(
            new_complete(3, 3), [(3, 7), (3, 8), (4, 6), (4, 7), (5, 6)]
        )
        assert solve_theorem11(g).serialize() == (
            "cycle 0 3 6 1 4 8 5 2 7\ntrace LemmaClosure\n"
        )
        assert not [r for r in caplog.records if r.name == "kpham.constructive"]

    def test_one_short_3x3_gap_sample(self, monkeypatch):
        # A seeded fifth of the one-edge-short (3,3) graphs with minimum
        # degree 2: the closure builds every one, so none reaches the search
        # (none of all 80 676 does).
        gaps = Counter()
        finish = constructive._finish_with_search

        def counting_finish(g, trace, reason):
            gaps[reason] += 1
            return finish(g, trace, reason)

        monkeypatch.setattr(constructive, "_finish_with_search", counting_finish)
        rng = random.Random(15)
        graphs = 0
        for combo in combinations(host_edges(3, 3), edge_threshold(3, 3) - 1):
            if rng.random() >= 0.2:
                continue
            g = from_edge_list(3, 3, combo)
            if min(map(int.bit_count, g.adj)) < 2:
                continue
            r = solve_theorem11(g)
            validate_hamilton_cycle(g.adj, r.cycle)
            graphs += 1
        assert graphs == 16072
        assert not gaps

    @pytest.mark.parametrize("n", [8, 21])
    def test_adversarial_family_built_without_search(self, n):
        # Every missing edge touches the pair of least degree sum, and an
        # exhaustive search takes over 20 s from n = 8 on.
        g = _adversarial_one_short(n)
        assert g.edge_count == edge_threshold(3, n) - 1
        assert min(map(int.bit_count, g.adj)) == 2
        r = solve_theorem11(g)
        validate_hamilton_cycle(g.adj, r.cycle)
        assert "SearchFallback" not in r.trace

    @pytest.mark.parametrize(
        ("k", "n", "graphs", "searches"),
        [(3, 2, 196, 12), (5, 1, 100, 10), (2, 4, 528, 0), (6, 1, 1335, 0)],
    )
    def test_one_short_census_searches(self, k, n, graphs, searches):
        # Every one-edge-short graph of minimum degree 2: the closure builds
        # each Hamiltonian one, and only the non-Hamiltonian ones search.
        checked = searched = 0
        for g in all_subsets_of_size(k, n, edge_threshold(k, n) - 1):
            if min(map(int.bit_count, g.adj)) < 2:
                continue
            r = solve_theorem11(g)
            truth = is_hamiltonian(g).hamiltonian
            assert (r.cycle is not None) == truth
            if r.cycle is not None:
                validate_hamilton_cycle(g.adj, r.cycle)
            if "SearchFallback" in r.trace:
                assert not truth
                searched += 1
            checked += 1
        assert (checked, searched) == (graphs, searches)

    def test_all_one_short_min_degree_two_agree_with_oracle(self):
        # every 9-edge (3, 2) instance with min degree 2: the solver's
        # verdict must match brute force exactly, both ways
        from itertools import combinations

        host = new_complete(3, 2)
        hedges = host.edges()
        checked = negatives = 0
        for drop in combinations(hedges, 3):
            g, _ = remove_edges(host, drop)
            if min(map(int.bit_count, g.adj)) < 2:
                continue
            truth = is_hamiltonian(g).hamiltonian
            r = solve_theorem11(g)
            assert (r.cycle is not None) == truth
            if r.cycle is not None:
                validate_hamilton_cycle(g.adj, r.cycle)
            else:
                negatives += 1
            checked += 1
        assert checked == 196
        assert negatives == 12


# ---- degree-sum facts at n = 2 -------------------------------------------
#
# With at most 2k-4 cross edges missing, every nonadjacent cross pair sums to
# at least 2k-1. Where the sigma bound fails the minimum is exactly 2k-1,
# every missing edge touches each pair attaining it, and dropping the part of
# the pair's lower-degree vertex leaves a (k-1)-part remainder at its
# threshold; the twin of the dropped vertex and the other pair vertex sum to
# at least N. Where the bound holds and k != 4, every nonadjacent pair, twins
# included, sums to at least N. The solver relies on none of this, since its
# closure rests on Chvatal's condition (TestChvatalAtThreshold); the facts
# stay as an independent check of what the sigma bound admits at n = 2.
# Everything is computed here from the definitions, not through the solver.


def _check_n2_facts(k: int, dropped) -> bool:
    """Assert the facts for the (k, 2) host minus dropped; return whether
    the sigma bound failed."""
    count = 2 * k
    missing = {(min(u, v), max(u, v)) for u, v in dropped}
    assert len(missing) <= 2 * k - 4

    def adjacent(u, v):
        return u // 2 != v // 2 and (min(u, v), max(u, v)) not in missing

    deg = [sum(adjacent(u, v) for v in range(count)) for u in range(count)]
    sums = {pair: deg[pair[0]] + deg[pair[1]] for pair in missing}
    sigma = min(sums.values(), default=None)
    # the sigma bound at n = 2: sigma > 2(k - 2/(k+1)), or 2(k - 4/(k+2)) at even k
    bound = 2 * (k - (Fraction(2, k + 1) if k % 2 else Fraction(4, k + 2)))
    if sigma is None or sigma > bound:
        if k != 4:
            twins = [deg[2 * p] + deg[2 * p + 1] for p in range(k)]
            assert min(sums.values(), default=count) >= count
            assert min(twins) >= count
        return False
    assert sigma == 2 * k - 1
    for (u, v), total in sums.items():
        if total != sigma:
            continue
        assert all(u in edge or v in edge for edge in missing)
        for low, high in ((u, v), (v, u)):
            if deg[low] > deg[high]:
                continue
            # the twin and high may end a path closed at the reattachment
            assert deg[low ^ 1] + deg[high] >= count
            kept = [e for e in missing if low // 2 not in (e[0] // 2, e[1] // 2)]
            assert comb(k - 1, 2) * 4 - len(kept) >= edge_threshold(k - 1, 2)
    return True


@st.composite
def _n2_deletion_sets(draw):
    """(k, deletion set) at n = 2 within the budget 2k-4; half the draws
    take every deleted edge at one of two vertices."""
    k = draw(st.integers(3, 12))
    pool = host_edges(k, 2)
    if draw(st.booleans()):
        ends = draw(st.sets(st.integers(0, 2 * k - 1), min_size=2, max_size=2))
        pool = [e for e in pool if ends & set(e)]
    size = draw(st.integers(0, 2 * k - 4))
    drop = st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True)
    return k, draw(drop)


def _star_at_zero(k):
    # vertex 0 loses (0, 2) and 2k-5 more edges: sigma 2k-1 at (0, 2)
    return k, [(0, 2)] + [(0, w) for w in range(4, 2 * k - 1)]


class TestN2DegreeSumFacts:
    @settings(max_examples=300, deadline=None)
    @given(_n2_deletion_sets())
    @example(_star_at_zero(3))
    @example(_star_at_zero(7))
    @example(_star_at_zero(12))
    def test_within_budget(self, case):
        _check_n2_facts(*case)

    @pytest.mark.parametrize(("k", "bound_failures"), [(3, 36), (4, 0)])
    def test_exhaustive(self, k, bound_failures):
        host = host_edges(k, 2)
        failures = sum(
            _check_n2_facts(k, dropped)
            for size in range(2 * k - 3)
            for dropped in combinations(host, size)
        )
        assert failures == bound_failures


# ---- Chvatal's condition at the threshold ----------------------------------
#
# The k >= 3, n >= 2 route (see _route) relies on every threshold graph
# meeting Chvatal's degree-sequence condition, which makes its all-pairs
# closure at bound N complete. Adding edges keeps the condition, so the full deletion
# budget (k-1)n-2 is the hardest case. solve_theorem11 relies on the same
# condition one edge short wherever (k-1)n >= 8. Degrees are computed here
# from the deleted edges, not through the solver.


def _chvatal(degrees) -> tuple[bool, bool]:
    """(whether the sorted degrees d_1 <= ... <= d_N meet Chvatal's
    condition, whether some i < N/2 has d_i <= i so that it says more than
    the vacuous case)."""
    d = sorted(degrees)
    count = len(d)
    low = [i for i in range(1, (count + 1) // 2) if d[i - 1] <= i]
    return all(d[count - i - 1] >= count - i for i in low), bool(low)


def _threshold_degrees(k: int, n: int, dropped) -> list[int]:
    deg = [(k - 1) * n] * (k * n)
    for u, v in dropped:
        deg[u] -= 1
        deg[v] -= 1
    return deg


@st.composite
def _hub_deletion_sets(draw):
    """(k, n, deletion set) for k >= 3, n >= 2 and kn <= 64: the whole
    budget (k-1)n-2, spent on edges at 1-8 hub vertices."""
    n = draw(st.integers(2, 21))
    k = draw(st.integers(3, 64 // n))
    hubs = draw(st.sets(st.integers(0, k * n - 1), min_size=1, max_size=8))
    pool = [e for e in host_edges(k, n) if hubs & set(e)]
    size = (k - 1) * n - 2
    drop = st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True)
    return k, n, draw(drop)


class TestChvatalAtThreshold:
    @pytest.mark.parametrize(
        ("k", "n", "sets", "non_vacuous"), [(3, 2, 66, 0), (3, 3, 17550, 108), (4, 2, 10626, 0)]
    )
    def test_every_full_budget_deletion_set(self, k, n, sets, non_vacuous):
        # Only (3,3) has an i < N/2 with d_i <= i: i = 4, four vertices of
        # degree 4 that hold every missing edge, so d_5 = 6 >= 5.
        checked = tight = 0
        for dropped in combinations(host_edges(k, n), (k - 1) * n - 2):
            holds, used = _chvatal(_threshold_degrees(k, n, dropped))
            assert holds, dropped
            checked += 1
            tight += used
        assert (checked, tight) == (sets, non_vacuous)

    @settings(max_examples=200, deadline=None)
    @given(_hub_deletion_sets())
    def test_hub_deletions_close(self, case):
        k, n, dropped = case
        assert _chvatal(_threshold_degrees(k, n, dropped))[0]
        g, _ = remove_edges(new_complete(k, n), dropped)
        _, _, cand, bound, start = _route(k, n)
        validate_hamilton_cycle(g.adj, _closure_cycle(g.adj, cand, bound, start))

    def test_multi_case_split_arithmetic(self):
        # _route's k >= 3 proof rules out d_i <= i for each i < N/2 by one
        # of three inequalities, with a = (k-1)n and D the missing edges at
        # the threshold. Every shape up to the vertex cap is covered but one.
        uncovered = []
        for n in range(2, MAX_VERTICES // 3 + 1):
            for k in range(3, MAX_VERTICES // n + 1):
                a = (k - 1) * n
                missing = comb(k, 2) * n * n - edge_threshold(k, n)
                assert missing == a - 2
                for i in range(1, (k * n + 1) // 2):
                    if i == 1:
                        covered = a - missing >= 2
                    elif i == 2:
                        covered = 2 * a - 4 > missing + 1
                    else:
                        covered = 3 <= i <= a - 3 and i * (a - i) > 2 * missing
                    if not covered:
                        uncovered.append((k, n, i))
        assert uncovered == [(3, 3, 4)]
        # (3,3), i = 4: four vertices of degree <= 4 miss >= 4(a - 4) = 8 =
        # 2D edge ends, so every other vertex keeps degree a = 6 >= N - 4.
        a, missing = 6, 4
        assert 4 * (a - 4) == 2 * missing and a >= 9 - 4

    def test_one_short_arithmetic(self):
        # solve_theorem11's docstring: one edge short, D = a - 1 edges are
        # missing, the minimum degree rules out i = 1, and each i < N/2 above
        # it is ruled out by 2(a - 2) - 1 > D (i = 2) or by i(a - i) > 2D
        # (3 <= i <= a - 3). That covers every shape with a >= 8; a census
        # settles the k >= 3 shapes with a < 8 but (3,1), where two edges
        # leave a vertex of degree 1. Of those, (4,1) and (6,1) meet the
        # inequalities anyway.
        census = {(3, 2), (3, 3), (4, 2)} | {(k, 1) for k in range(4, 9)}
        small, uncovered = set(), set()
        for n in range(1, MAX_VERTICES // 3 + 1):
            for k in range(3, MAX_VERTICES // n + 1):
                a = (k - 1) * n
                missing = comb(k, 2) * n * n - (edge_threshold(k, n) - 1)
                assert missing == a - 1
                if a < 8:
                    small.add((k, n))
                else:
                    assert (k * n + 1) // 2 - 1 <= a - 3
                for i in range(2, (k * n + 1) // 2):
                    if i == 2:
                        covered = 2 * (a - 2) - 1 > missing
                    else:
                        covered = i <= a - 3 and i * (a - i) > 2 * missing
                    if not covered:
                        uncovered.add((k, n))
        assert small == census | {(3, 1)}
        assert 2 * (edge_threshold(3, 1) - 1) < 2 * 3
        assert uncovered == census - {(4, 1), (6, 1)}

    def test_k2_degree_sum_arithmetic(self):
        # _route's k == 2 proof: at most D + 1 <= n - 1 edges are missing at
        # the two ends of a missing pair, so their degree sum reaches the
        # bound n + 1.
        for n in range(2, MAX_VERTICES // 2 + 1):
            missing = n * n - edge_threshold(2, n)
            assert missing == n - 2
            assert 2 * n - (missing + 1) >= n + 1


# ---- golden outputs ------------------------------------------------------
#
# The inputs and the way each output is computed live in golden_cases.py; the
# pinned outputs are the files under tests/golden/, which these tests read
# and never write. scripts/regen_golden.py rewrites them and prints the diff.
# Any refactor of the solver must keep these bytes exactly.


class TestGolden:
    @pytest.mark.parametrize(
        ("name", "k", "n", "drop"),
        [(name, *case) for name, case in zip(LITERAL_IDS, GOLDEN_LITERALS)],
        ids=LITERAL_IDS,
    )
    def test_literal(self, name, k, n, drop):
        pinned = golden_cases.read(f"{name}.txt").splitlines(True)
        want, want_t11 = "".join(pinned[:2]), "".join(pinned[2:])
        g, _ = remove_edges(new_complete(k, n), drop)
        assert solve(g).serialize() == want
        assert solve_theorem11(one_short(g)).serialize() == want_t11

    def test_batch_digest(self):
        digest, tags = golden_cases.batch_digest()
        assert tags == TRACE_TAGS - {"SearchFallback"}
        assert digest + "\n" == golden_cases.read(golden_cases.BATCH_FILE)

    def test_gap_log(self, caplog):
        # A theorem-11 search logs its reason and the instance once at INFO;
        # solve() at the threshold logs nothing, here on a graph whose vertex
        # 0 sees only part 2.
        caplog.set_level(logging.INFO, logger="kpham.constructive")
        solve_theorem11(from_edge_list(3, 2, STUBBORN_32_EDGES))
        records = [r for r in caplog.records if r.name == "kpham.constructive"]
        assert [r.levelno for r in records] == [logging.INFO]
        assert records[0].getMessage() == (
            "constructive gap: degree-sum closure did not complete [k=3 n=2 m=9"
            " edges=0-4;0-5;1-3;1-4;1-5;2-4;2-5;3-4;3-5]"
        )
        caplog.clear()
        g, _ = remove_edges(new_complete(3, 3), [(0, 3), (0, 4), (0, 5), (2, 5)])
        solve(g)
        assert not [r for r in caplog.records if r.name == "kpham.constructive"]

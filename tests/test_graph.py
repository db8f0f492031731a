"""Gain digraph construction and simple-cycle enumeration."""

from itertools import combinations, permutations

import numpy as np
import pytest

from smallgain.gains import (
    GridSpec,
    Identity,
    Linear,
    Power,
    VerdictStatus,
)
from smallgain.graph import (
    CycleCountExceeded,
    GainDigraph,
    SmallGainCheck,
    build_gain_digraph,
    check_cyclic_small_gain,
    cycle_gain,
    enumerate_simple_cycles,
)
from smallgain.ring import ring_gains


def brute_force_cycles(k: int, edges) -> list[tuple[int, ...]]:
    """Oracle: try every node subset and every rotation-canonical order.

    A cycle (i1, ..., ir) is canonical when i1 is its smallest node;
    generating combinations (already sorted) and permuting the remainder
    produces each candidate exactly once.
    """
    edges = set(edges)
    found = []
    for r in range(2, k + 1):
        for combo in combinations(range(1, k + 1), r):
            first = combo[0]
            for rest in permutations(combo[1:]):
                cyc = (first,) + rest
                if all(
                    (cyc[idx], cyc[(idx + 1) % r]) in edges for idx in range(r)
                ):
                    found.append(cyc)
    found.sort(key=lambda c: (len(c), c))
    return found


def complete_edges(n: int) -> dict:
    return {
        (i, j): Linear(0.1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    }


class TestDigraphConstruction:
    def test_rejects_bad_nodes_and_gains(self):
        with pytest.raises(ValueError):
            build_gain_digraph(0, {})
        with pytest.raises(ValueError):
            build_gain_digraph(2, {(1, 3): Linear(1.0)})
        with pytest.raises(ValueError):
            build_gain_digraph(2, {(1, 1): Linear(1.0)})
        with pytest.raises(TypeError):
            build_gain_digraph(2, {(1, 2): 0.5})
        with pytest.raises(ValueError):
            build_gain_digraph(2, {}, input_gains={5: Linear(1.0)})
        with pytest.raises(TypeError):
            build_gain_digraph(2, {}, gs_gains={1: "7*s"})

    def test_equality_and_immutability(self):
        a = build_gain_digraph(2, {(1, 2): Linear(0.5)})
        b = build_gain_digraph(2, {(1, 2): Linear(0.5)})
        assert a == b
        assert hash(a) == hash(b)
        with pytest.raises(TypeError):
            a.edges[(2, 1)] = Linear(1.0)


class TestCycleEnumeration:
    def test_complete_digraph_counts(self):
        # Sum over subset sizes r of C(n, r) * (r-1)! distinct cycles.
        for n, expected in ((3, 5), (4, 20), (5, 84), (6, 409)):
            edges = complete_edges(n)
            cycles = enumerate_simple_cycles(edges, n)
            assert len(cycles) == expected
            assert cycles == brute_force_cycles(n, edges)

    def test_three_node_cycle_listing(self):
        cycles = enumerate_simple_cycles(complete_edges(3), 3)
        assert cycles == [(1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 3, 2)]

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(13579)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            edges = {
                (i, j): Linear(0.1)
                for i in range(1, k + 1)
                for j in range(1, k + 1)
                if i != j and rng.random() < 0.45
            }
            got = enumerate_simple_cycles(edges, k)
            assert got == brute_force_cycles(k, edges)

    def test_canonical_form_and_edge_validity(self):
        edges = complete_edges(5)
        for cyc in enumerate_simple_cycles(edges, 5):
            assert len(cyc) >= 2
            assert len(set(cyc)) == len(cyc)
            assert cyc[0] == min(cyc)
            for idx in range(len(cyc)):
                assert (cyc[idx], cyc[(idx + 1) % len(cyc)]) in edges

    def test_deterministic(self):
        g = ring_gains()
        assert enumerate_simple_cycles(g) == enumerate_simple_cycles(g)

    def test_acyclic_chain(self):
        edges = {(1, 2): Linear(1.0), (2, 3): Linear(1.0)}
        assert enumerate_simple_cycles(edges, 3) == []

    def test_cycle_cap(self):
        with pytest.raises(CycleCountExceeded):
            enumerate_simple_cycles(complete_edges(5), 5, max_cycles=10)

    def test_digraph_input_accepted(self):
        g = ring_gains()
        assert enumerate_simple_cycles(g) == [(1, 2, 3)]


class TestCycleGain:
    def test_matches_hand_composition(self):
        g = ring_gains()
        composed = cycle_gain(g, (1, 2, 3))

        def oracle(s: float) -> float:
            inner = s**2.0  # node 3's influence on node 2's bound
            middle = inner**3.0
            return 0.5 * middle**2.0 / (1.0 + middle**2.0)

        for s in np.geomspace(1e-3, 1e3, 13):
            assert composed(float(s)) == pytest.approx(oracle(float(s)), rel=1e-13)

    def test_rotation_changes_the_tree_not_the_violation(self):
        edges = {(1, 2): Linear(2.0), (2, 1): Linear(3.0)}
        g = build_gain_digraph(2, edges)
        a = cycle_gain(g, (1, 2))
        b = cycle_gain(g, (2, 1))
        assert a != b
        assert a(1.0) == b(1.0) == 6.0

    def test_absent_edge_rejected(self):
        g = ring_gains()
        with pytest.raises(ValueError):
            cycle_gain(g, (1, 3, 2))


class TestCyclicSmallGain:
    def test_ring_verifies(self):
        result = check_cyclic_small_gain(ring_gains())
        assert isinstance(result, SmallGainCheck)
        assert result.verified
        assert [r.cycle for r in result.reports] == [(1, 2, 3)]
        assert result.worst().margin > 0.6

    def test_single_violation_dominates(self):
        edges = {
            (1, 2): Linear(0.5),
            (2, 1): Linear(0.5),
            (3, 4): Linear(1.5),
            (4, 3): Linear(1.5),
        }
        result = check_cyclic_small_gain(build_gain_digraph(4, edges))
        assert result.status is VerdictStatus.VIOLATED
        worst = result.worst()
        assert worst.cycle == (3, 4)
        assert worst.verdict.violated
        # The witness satisfies the violated inequality concretely.
        assert 2.25 * worst.witness >= worst.witness

    def test_inconclusive_beats_verified(self):
        edges = {
            (1, 2): Linear(0.5),
            (2, 1): Linear(0.5),
            (3, 4): Linear(1.0 - 1e-15),
            (4, 3): Linear(1.0),
        }
        result = check_cyclic_small_gain(build_gain_digraph(4, edges))
        assert result.status is VerdictStatus.INCONCLUSIVE

    def test_acyclic_verifies_vacuously(self):
        g = build_gain_digraph(3, {(1, 2): Linear(5.0), (2, 3): Power(2.0)})
        result = check_cyclic_small_gain(g)
        assert result.verified
        assert result.reports == ()
        assert result.worst() is None

    def test_respects_custom_grid(self):
        # s^2 sits below the identity only for s < 1, so a grid capped
        # there verifies while the default grid finds the violation.
        edges = {
            (1, 2): Power(2.0),
            (2, 1): Identity(),
        }
        g = build_gain_digraph(2, edges)
        narrow = GridSpec(s_min=1e-4, s_max=1e-2)
        assert check_cyclic_small_gain(g, narrow).verified
        assert check_cyclic_small_gain(g).status is VerdictStatus.VIOLATED

    def test_report_serialization(self):
        doc = check_cyclic_small_gain(ring_gains()).to_dict()
        assert doc["status"] == "verified_on_grid"
        (cycle_doc,) = doc["cycles"]
        assert cycle_doc["cycle"] == [1, 2, 3]
        assert "compose" in cycle_doc["gain"]
        assert cycle_doc["verdict"]["status"] == "verified_on_grid"


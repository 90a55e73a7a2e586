"""Per-cell allocation subproblems against independent LP oracles."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from tiercast.problem import Instance
from tiercast.solvers import (
    solve_cell_subproblem,
    solve_cell_subproblem_multicast,
)

from conftest import random_tiny_instance


def knapsack_lp_vertex_oracle(costs, budget):
    """LP optimum of max sum(y) s.t. costs . y <= budget, 0 <= y <= 1, found
    by enumerating polytope vertices: all-binary points plus points with one
    fractional coordinate pinned by the tight budget."""
    n = len(costs)
    best = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        spent = sum(c for c, b in zip(costs, bits) if b)
        if spent <= budget:
            best = max(best, float(sum(bits)))
        for frac in range(n):
            if bits[frac]:
                continue
            y = (budget - spent) / costs[frac]
            if 0 < y < 1:
                best = max(best, sum(bits) + y)
    return best


def _instance_for_items(costs):
    n = len(costs)
    return Instance(
        n_users=n,
        n_cells=1,
        n_views=1,
        w=np.ones((n, 1, 1), dtype=np.int8),
        rb_budget=np.array([10**6]),
        rb_basic=np.ones((n, 1), dtype=np.int64),
        rb_enhanced=np.asarray(costs, dtype=np.int64).reshape(n, 1, 1),
    )


def test_subproblem_hand_example():
    inst = _instance_for_items([10, 20])
    cell = solve_cell_subproblem(inst, 0, [0, 1], 25.0)
    assert cell.value == pytest.approx(1.75)
    assert cell.alloc == {(0, 0): 1.0, (1, 0): 0.75}


def test_subproblem_zero_budget():
    inst = _instance_for_items([10, 20])
    cell = solve_cell_subproblem(inst, 0, [0, 1], 0.0)
    assert cell.value == 0.0 and not cell.alloc


def test_subproblem_negative_budget_flags_infeasible():
    inst = _instance_for_items([10])
    cell = solve_cell_subproblem(inst, 0, [0], -5.0)
    assert cell.value == 0.0 and not cell.alloc


def test_subproblem_matches_lp_vertex_oracle(rng):
    for _ in range(500):
        n = int(rng.integers(1, 7))
        costs = [int(c) for c in rng.integers(1, 30, size=n)]
        budget = float(rng.integers(0, 80))
        inst = _instance_for_items(costs)
        cell = solve_cell_subproblem(inst, 0, list(range(n)), budget)
        assert cell.value == pytest.approx(
            knapsack_lp_vertex_oracle(costs, budget), abs=1e-9
        )
        fractional = [y for y in cell.alloc.values() if 1e-12 < y < 1 - 1e-12]
        assert len(fractional) <= 1


def test_subproblem_tie_order_is_deterministic():
    inst = _instance_for_items([5, 5, 5])
    cell = solve_cell_subproblem(inst, 0, [2, 0, 1], 12.0)
    # Equal densities resolve by (cost, user, view): users 0 and 1 filled.
    assert cell.alloc == {(0, 0): 1.0, (1, 0): 1.0, (2, 0): pytest.approx(0.4)}


def multicast_lp_oracle(inst, cell, users, budget):
    """Exact LP for the multicast cell problem: allocations plus one charge
    variable per group view, solved with scipy's HiGHS backend."""
    cands = [
        (i, k)
        for i in users
        for k in range(inst.n_views)
        if inst.w[i, cell, k]
    ]
    if not cands:
        return 0.0
    grouped_views = sorted(
        {k for i, k in cands if inst.sharing[i, k]}
    )
    cidx = {k: len(cands) + t for t, k in enumerate(grouped_views)}
    n = len(cands) + len(grouped_views)

    c = [-1.0] * len(cands) + [0.0] * len(grouped_views)
    budget_row = [0.0] * n
    for t, (i, k) in enumerate(cands):
        if not inst.sharing[i, k]:
            budget_row[t] = float(inst.rb_enhanced[i, cell, k])
    for k in grouped_views:
        budget_row[cidx[k]] = 1.0
    a_ub = [budget_row]
    b_ub = [float(budget)]
    for t, (i, k) in enumerate(cands):
        if inst.sharing[i, k]:
            row = [0.0] * n
            row[t] = float(inst.rb_enhanced[i, cell, k])
            row[cidx[k]] = -1.0
            a_ub.append(row)
            b_ub.append(0.0)
    bounds = [(0, 1)] * len(cands) + [(0, None)] * len(grouped_views)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success
    return -res.fun


def test_multicast_subproblem_matches_lp_oracle(rng):
    for _ in range(300):
        inst = random_tiny_instance(rng, with_sharing=True)
        cell = int(rng.integers(inst.n_cells))
        users = [i for i in range(inst.n_users) if rng.uniform() < 0.8]
        budget = float(rng.integers(0, 40))
        mine = solve_cell_subproblem_multicast(inst, cell, users, budget)
        assert mine.value == pytest.approx(
            multicast_lp_oracle(inst, cell, users, budget), abs=1e-7
        )


def test_multicast_subproblem_dominates_unicast(rng):
    for _ in range(200):
        inst = random_tiny_instance(rng, with_sharing=True)
        cell = int(rng.integers(inst.n_cells))
        users = list(range(inst.n_users))
        budget = float(rng.integers(0, 40))
        uni = solve_cell_subproblem(inst, cell, users, budget)
        multi = solve_cell_subproblem_multicast(inst, cell, users, budget)
        assert multi.value >= uni.value - 1e-9


def test_multicast_subproblem_without_groups_matches_unicast(rng):
    for _ in range(100):
        inst = random_tiny_instance(rng, with_sharing=False)
        cell = int(rng.integers(inst.n_cells))
        budget = float(rng.integers(0, 40))
        uni = solve_cell_subproblem(inst, cell, list(range(inst.n_users)), budget)
        multi = solve_cell_subproblem_multicast(
            inst, cell, list(range(inst.n_users)), budget
        )
        assert multi.value == pytest.approx(uni.value, abs=1e-12)

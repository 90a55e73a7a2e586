"""Per-cell allocation subproblems against independent LP oracles."""

import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from tiercast import solvers
from tiercast.problem import MULTICAST, UNICAST, Instance
from tiercast.solvers import _one_cell

from conftest import cell_cases, instances, multicast_cell_cases


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
    alloc, value = _one_cell(inst, 0, [0, 1], 25.0, UNICAST)
    assert value == pytest.approx(1.75)
    assert alloc == {(0, 0): 1.0, (1, 0): 0.75}


def test_subproblem_zero_budget():
    inst = _instance_for_items([10, 20])
    alloc, value = _one_cell(inst, 0, [0, 1], 0.0, UNICAST)
    assert value == 0.0 and not alloc


def test_subproblem_negative_budget_flags_infeasible():
    inst = _instance_for_items([10])
    alloc, value = _one_cell(inst, 0, [0], -5.0, UNICAST)
    assert value == 0.0 and not alloc


@settings(max_examples=100, deadline=None)
@given(
    instances(costs=st.integers(1, 29), cells=st.just(1), views=st.just(1)),
    st.integers(0, 79).map(float),
)
def test_subproblem_matches_lp_vertex_oracle(inst, budget):
    # One view a user, so at most 6 items: the vertex scan is 2**6 points.
    costs = inst.rb_enhanced[inst.w == 1].tolist()
    alloc, value = _one_cell(inst, 0, list(range(inst.n_users)), budget, UNICAST)
    assert value == pytest.approx(knapsack_lp_vertex_oracle(costs, budget), abs=1e-9)
    fractional = [y for y in alloc.values() if 1e-12 < y < 1 - 1e-12]
    assert len(fractional) <= 1


def test_subproblem_tie_order_is_deterministic():
    inst = _instance_for_items([5, 5, 5])
    alloc, _ = _one_cell(inst, 0, [2, 0, 1], 12.0, UNICAST)
    # Equal densities resolve by (cost, user, view): users 0 and 1 filled.
    assert alloc == {(0, 0): 1.0, (1, 0): 1.0, (2, 0): pytest.approx(0.4)}


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


@settings(max_examples=100, deadline=None)
@given(multicast_cell_cases())
def test_multicast_subproblem_matches_lp_oracle(case):
    # A spent budget is worth 0, as the LP's value at 0 is.
    inst, cell, users, budget = case
    _, mine = _one_cell(inst, cell, users, budget, MULTICAST)
    assert mine == pytest.approx(
        multicast_lp_oracle(inst, cell, users, max(budget, 0.0)), abs=1e-7
    )


@settings(max_examples=50, deadline=None)
@given(multicast_cell_cases())
def test_multicast_subproblem_dominates_unicast(case):
    inst, cell, users, budget = case
    _, uni = _one_cell(inst, cell, users, budget, UNICAST)
    _, multi = _one_cell(inst, cell, users, budget, MULTICAST)
    assert multi >= uni - 1e-9


@settings(max_examples=50, deadline=None)
@given(cell_cases())
def test_multicast_subproblem_without_groups_matches_unicast(case):
    inst, cell, users, budget = case
    _, uni = _one_cell(inst, cell, users, budget, UNICAST)
    _, multi = _one_cell(inst, cell, users, budget, MULTICAST)
    assert multi == pytest.approx(uni, abs=1e-12)


@pytest.mark.parametrize(
    "name, mode",
    [("solve_cell_subproblem", UNICAST), ("solve_cell_subproblem_multicast", MULTICAST)],
)
@settings(max_examples=30, deadline=None)
@given(case=multicast_cell_cases())
def test_each_one_cell_alias_is_the_kernel_in_its_mode(name, mode, case):
    # The two public names are aliases for the benchmark to wrap: each is
    # ``_one_cell`` in its own mode, entries, order and value bit for bit,
    # and neither takes a mode.
    alias = getattr(solvers, name)
    assert list(inspect.signature(alias).parameters) == ["instance", "cell", "users", "budget"]
    inst, cell, users, budget = case
    alloc, value = alias(inst, cell, users, budget)
    kernel_alloc, kernel_value = _one_cell(inst, cell, users, budget, mode)
    assert list(alloc.items()) == list(kernel_alloc.items())
    assert value.hex() == kernel_value.hex()

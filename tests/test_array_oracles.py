"""The array code against the scalar loops in ``reference``: exact equality.

Every property compares values by their bits (``float.hex``), dicts by their
item order, and solver reports by their tie-break counts. The exceptions are
the allocation kernel's, against the per-cell loops: it gives no entry where
the unicast loop hands a float remainder on, the multicast loop's shares of
pairs outside a group are held to 2 ulp, and a cell's value, the shares'
sum, to 1e-12 relative of the loops' own sums. All run on small instances
with sharing groups, many equal costs and scores, and allocation dicts built
in arbitrary order.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from tiercast import solvers
from tiercast.channel import UNREACHABLE_RBS
from tiercast.problem import (
    FEAS_TOL,
    MULTICAST,
    UNICAST,
    Instance,
    Solution,
    broadcast_cost,
    is_feasible,
    objective,
    per_user_rewards,
    rb_usage,
)
from tiercast.experiments import build_experiment_instance, preset_config, run_solver
from tiercast.solvers import (
    _cell_value,
    solve_bb,
    solve_elva,
    solve_eva,
)

# NaN and inf allocations warn in both implementations alike.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

SETTINGS = settings(max_examples=150, deadline=None)

# Values that stress signed zeros, tiny shares, rounding, the feasibility
# tolerance and NaN handling.
SPECIAL_Y = [0.0, -0.0, 1.0, 0.5, 1 / 3, 2 / 3, 0.1, 1e-17, 5e-324, -0.25, 1.5,
             FEAS_TOL, -FEAS_TOL, 1.0 + FEAS_TOL, float("nan"), float("inf")]


def _bits(values):
    return tuple(float(v).hex() for v in np.ravel(values))


def _items(alloc):
    return [(key, float(y).hex()) for key, y in alloc.items()]


@st.composite
def instances(draw, sharing=None, costs=st.integers(1, 5), slack=st.integers(0, 12)):
    """Tiny instances; few distinct costs so that ties are common. A cell's
    budget is its largest basic cost plus ``slack`` - 4, and at least 1."""
    m = draw(st.integers(1, 6))
    s = draw(st.integers(1, 4))
    e = draw(st.integers(1, 4))
    w = np.array(draw(st.lists(st.integers(0, 1), min_size=m * s * e, max_size=m * s * e)))
    nb = np.array(draw(st.lists(st.integers(1, 3), min_size=m * s, max_size=m * s)))
    ne = np.array(draw(st.lists(costs, min_size=m * s * e, max_size=m * s * e)))
    slack = np.array(draw(st.lists(slack, min_size=s, max_size=s)))
    nb = nb.reshape(m, s)
    mask = None
    if draw(st.booleans()) if sharing is None else sharing:
        mask = np.array(
            draw(st.lists(st.integers(0, 1), min_size=m * e, max_size=m * e))
        ).reshape(m, e)
    # Budgets may fall below a cell's largest basic cost.
    return Instance(
        n_users=m,
        n_cells=s,
        n_views=e,
        w=w.reshape(m, s, e),
        rb_budget=np.maximum(1, nb.max(axis=0) + slack - 4),
        rb_basic=nb,
        rb_enhanced=ne.reshape(m, s, e),
        sharing=mask,
    )


@st.composite
def solutions(draw, instance, in_range=True):
    """A random association and an allocation dict in arbitrary key order,
    over rewarded and unrewarded (user, view) pairs alike."""
    m, e = instance.n_users, instance.n_views
    assoc = draw(st.lists(st.integers(0, instance.n_cells - 1), min_size=m, max_size=m))
    keys = draw(st.permutations([(i, k) for i in range(m) for k in range(e)]))
    keys = keys[: draw(st.integers(0, len(keys)))]
    if not in_range:
        keys += draw(st.lists(st.tuples(st.integers(-2, m + 1), st.integers(-2, e + 1)),
                              max_size=3))
    y = st.one_of(st.sampled_from(SPECIAL_Y), st.floats(0, 1), st.floats(-2, 2))
    alloc = {key: draw(y) for key in keys}
    return Solution(assoc=np.array(assoc), alloc=alloc)


@SETTINGS
@given(st.data())
def test_objective_and_rewards_match_loops(data):
    inst = data.draw(instances())
    sol = data.draw(solutions(inst))
    assert _bits([objective(inst, sol)]) == _bits([reference.objective(inst, sol)])
    assert _bits(per_user_rewards(inst, sol)) == _bits(reference.per_user_rewards(inst, sol))


@SETTINGS
@given(st.data(), st.sampled_from([UNICAST, MULTICAST]))
def test_rb_usage_matches_loops(data, mode):
    inst = data.draw(instances())
    sol = data.draw(solutions(inst))
    assert _bits(rb_usage(inst, sol, mode)) == _bits(reference.rb_usage(inst, sol, mode))


@SETTINGS
@given(st.data(), st.sampled_from([UNICAST, MULTICAST]))
def test_is_feasible_matches_loop(data, mode):
    inst = data.draw(instances())
    sol = data.draw(solutions(inst, in_range=False))
    mine = is_feasible(inst, sol, mode)
    ref = reference.is_feasible(inst, sol, mode)
    assert mine.feasible == ref.feasible
    assert [str(v) for v in mine.violations] == [str(v) for v in ref.violations]
    assert mine.violations == ref.violations
    # The report carries rb_usage's array unless an index is out of range.
    if any(v.constraint in ("association", "alloc-index") for v in ref.violations):
        assert mine.usage is None
    else:
        assert _bits(mine.usage) == _bits(rb_usage(inst, sol, mode))


def _one_user_all_views(n_views, sharing=None):
    return Instance(
        n_users=1, n_cells=1, n_views=n_views, w=np.ones((1, 1, n_views)),
        rb_budget=[100], rb_basic=[[1]], rb_enhanced=np.ones((1, 1, n_views)),
        sharing=sharing,
    )


def test_ledger_sums_left_to_right_past_eight_terms():
    # A pairwise or blocked sum adds the small terms first and ends above 1.
    inst = _one_user_all_views(12)
    sol = Solution(assoc=np.array([0]), alloc={(0, 0): 1.0})
    sol.alloc.update({(0, k): 1e-16 for k in range(1, 12)})
    assert _bits([objective(inst, sol)]) == _bits([reference.objective(inst, sol)])
    assert objective(inst, sol) == 1.0
    assert _bits(per_user_rewards(inst, sol)) == _bits(reference.per_user_rewards(inst, sol))
    for mode in (UNICAST, MULTICAST):
        assert _bits(rb_usage(inst, sol, mode)) == _bits(reference.rb_usage(inst, sol, mode))


def test_rb_usage_multicast_group_charges_in_first_appearance_order():
    # View 1's group appears first: (1 + 0.2) + 0.6 != (1 + 0.6) + 0.2.
    inst = _one_user_all_views(2, sharing=[[1, 1]])
    sol = Solution(assoc=np.array([0]), alloc={(0, 1): 0.2, (0, 0): 0.6})
    mine = rb_usage(inst, sol, MULTICAST)
    assert _bits(mine) == _bits(reference.rb_usage(inst, sol, MULTICAST))
    assert mine[0] == (1 + 0.2) + 0.6 != (1 + 0.6) + 0.2


def test_rb_usage_multicast_group_charge_skips_nan_like_max():
    inst = _one_user_all_views(1, sharing=[[1]])
    sol = Solution(assoc=np.array([0]), alloc={(0, 0): float("nan")})
    assert _bits(rb_usage(inst, sol, MULTICAST)) == _bits(
        reference.rb_usage(inst, sol, MULTICAST)
    )


def test_is_feasible_reports_out_of_range_cell_without_indexing_it():
    inst = Instance(
        n_users=2, n_cells=1, n_views=1, w=np.ones((2, 1, 1)),
        rb_budget=[10], rb_basic=[[1], [1]], rb_enhanced=np.ones((2, 1, 1)),
    )
    sol = Solution(assoc=np.array([0, 3]), alloc={(0, 0): 1.0, (1, 0): 1.0})
    report = is_feasible(inst, sol)
    assert [v.constraint for v in report.violations] == ["association"]


def _assert_cell_matches_loop(inst, cell, users, budget, mode, mine):
    """One cell's kernel entries ``mine``, in order, against the per-cell
    loop of ``reference`` at ``budget``. Unicast: the loop's entries bit for
    bit, up to its remainder entries, which the kernel leaves out; a share
    below 1 only last. Multicast: the two-kind loop's pairs, members' shares
    bit for bit and the others' to 2 ulp; and ``group_fill``'s entries, bit
    for bit and in order. Returns the loop's value."""
    if mode == UNICAST:
        ref_alloc, ref_value = reference.solve_cell_subproblem(
            inst, cell, users, budget
        )
        ref_items = _items(ref_alloc)
        assert _items(mine) == ref_items[: len(mine)]
        # After a partial share, (y * cost) can leave the loop a float
        # remainder of the budget, which it hands on in shares below 1e-9.
        assert all(y < 1e-9 for y in list(ref_alloc.values())[len(mine):])
        assert all(y == 1.0 for y in list(mine.values())[:-1])
        return ref_value
    ref_alloc, ref_value = reference.solve_cell_subproblem_multicast(
        inst, cell, users, budget
    )
    assert mine.keys() == ref_alloc.keys()
    for key, y in ref_alloc.items():
        if inst.sharing[key]:
            assert _bits([mine[key]]) == _bits([y])
        else:
            assert abs(mine[key] - y) <= 2 * math.ulp(y)
    assert _items(mine) == _items(reference.group_fill(inst, cell, users, budget))
    return ref_value


def _assert_value_is_the_share_sum(alloc, value, ref_value):
    """A one-cell value is its shares' sum in entry order, and within 1e-12
    relative of the loop's."""
    shares = list(alloc.values())
    assert _bits([value]) == _bits([sum(shares, 0.0)])
    assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))


@st.composite
def cell_cases(draw):
    inst = draw(instances(sharing=False, costs=st.sampled_from([1, 2, 3, 5, 49])))
    cell = draw(st.integers(0, inst.n_cells - 1))
    users = draw(st.lists(st.integers(0, inst.n_users - 1), unique=True, max_size=8))
    costs = sorted(
        int(inst.rb_enhanced[i, cell, k])
        for i in users
        for k in np.flatnonzero(inst.w[i, cell])
    )
    # Budgets at, just off and between the prefix sums of the sorted costs,
    # plus arbitrary fractions.
    edge = float(sum(costs[: draw(st.integers(0, len(costs)))]))
    budget = draw(
        st.one_of(
            st.sampled_from([edge, edge + 1e-12, edge - 1e-12, edge + 0.1, edge + 1 / 3]),
            st.floats(-1.0, 60.0),
            st.integers(-1, 60).map(float),
        )
    )
    return inst, cell, users, budget


@settings(max_examples=300, deadline=None)
@given(cell_cases())
def test_unicast_cell_kernel_matches_fill_loop(case):
    inst, cell, users, budget = case
    alloc, value = solvers._one_cell(inst, cell, users, budget, UNICAST)
    ref_value = _assert_cell_matches_loop(inst, cell, users, budget, UNICAST, alloc)
    _assert_value_is_the_share_sum(alloc, value, ref_value)


def _two_users_at_49_and_50():
    return Instance(
        n_users=2, n_cells=1, n_views=1, w=np.ones((2, 1, 1)),
        rb_budget=[100], rb_basic=[[1], [1]], rb_enhanced=[[[49]], [[50]]],
    )


def test_unicast_cell_kernel_leaves_no_remainder_share():
    # (1 / 49) * 49 rounds below 1, so the loop hands ~2e-18 to the next
    # item; the kernel's take is exact, and the next item gets no entry.
    inst = _two_users_at_49_and_50()
    alloc, value = solvers._one_cell(inst, 0, [0, 1], 1.0, UNICAST)
    ref_alloc, _ = reference.solve_cell_subproblem(inst, 0, [0, 1], 1.0)
    assert 0 < ref_alloc[(1, 0)] < 1e-9
    assert _items(alloc) == _items(ref_alloc)[:1] == [((0, 0), (1 / 49).hex())]
    assert value == 1 / 49


def test_unicast_cell_kernel_takes_items_while_budget_is_left():
    # 5e-324 / 49 underflows to 0. The first item's take, 5e-324, is
    # positive, so it is recorded at its share of 0; that take spends the
    # budget, where the loop, whose spend rounded to 0, went on.
    inst = _two_users_at_49_and_50()
    alloc, _ = solvers._one_cell(inst, 0, [0, 1], 5e-324, UNICAST)
    ref_alloc, _ = reference.solve_cell_subproblem(inst, 0, [0, 1], 5e-324)
    assert _items(alloc) == _items(ref_alloc)[:1] == [((0, 0), (0.0).hex())]
    assert _items(ref_alloc)[1:] == [((1, 0), (0.0).hex())]


@st.composite
def multicast_cell_cases(draw):
    """A cell whose pairs are all, some or none in sharing groups, a subset
    of users in any order, and a budget that may be negative, zero, at a
    prefix of the pair costs or fractional. Costs include 49, whose
    49 * (1 / 49) rounds below 1."""
    inst = draw(instances(sharing=False))
    m, s, e = inst.n_users, inst.n_cells, inst.n_views
    kind = draw(st.sampled_from(["none", "partial", "all"]))
    if kind == "partial":
        mask = draw(st.lists(st.integers(0, 1), min_size=m * e, max_size=m * e))
    else:
        mask = [int(kind == "all")] * (m * e)
    ne = draw(st.lists(st.sampled_from([1, 2, 3, 5, 49]), min_size=m * s * e,
                       max_size=m * s * e))
    inst = dataclasses.replace(
        inst,
        rb_enhanced=np.array(ne).reshape(m, s, e),
        sharing=np.array(mask).reshape(m, e),
    )
    cell = draw(st.integers(0, inst.n_cells - 1))
    users = draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
    costs = sorted(inst.rb_enhanced[users, cell][inst.w[users, cell] == 1].tolist())
    edge = float(sum(costs[: draw(st.integers(0, len(costs)))]))
    budget = draw(
        st.one_of(
            st.sampled_from([-1.0, 0.0, edge, edge + 1 / 3, edge - 1e-12]),
            st.floats(-2.0, 150.0),
            st.integers(-1, 150).map(float),
        )
    )
    return inst, cell, users, budget


def _one_cell(enhanced, sharing, w=None):
    """Users at one cell with the given (M, E) enhanced costs and sharing."""
    enhanced = np.array(enhanced)[:, None, :]
    m, _, e = enhanced.shape
    return Instance(
        n_users=m, n_cells=1, n_views=e,
        w=np.ones_like(enhanced) if w is None else np.array(w)[:, None, :],
        rb_budget=[200], rb_basic=np.ones((m, 1)), rb_enhanced=enhanced,
        sharing=sharing,
    )


@settings(max_examples=300, deadline=None)
@given(multicast_cell_cases())
# Density ties at a partial take: a group's segment fills before a pair
# outside a group, and a lower key before a lower level.
@example((_one_cell([[3], [3]], [[1], [0]]), 0, [0, 1], 2.0))
@example((_one_cell([[1, 3], [3, 1]], [[1, 0], [1, 0]], [[1, 1], [1, 0]]), 0, [0, 1], 2.0))
def test_multicast_cell_kernel_matches_two_kind_loop(case):
    inst, cell, users, budget = case
    alloc, value = solvers._one_cell(inst, cell, users, budget, MULTICAST)
    ref_alloc, ref_value = reference.solve_cell_subproblem_multicast(
        inst, cell, users, budget
    )
    _assert_cell_matches_loop(inst, cell, users, budget, MULTICAST, alloc)
    _assert_value_is_the_share_sum(alloc, value, ref_value)
    alone = [key for key in ref_alloc if not inst.sharing[key]]
    # The loop records a pair outside a group as it fills it, and a partial
    # take spends the budget, so every such pair before the last was whole.
    for key in alone[:-1]:
        assert alloc[key] == 1.0


def test_multicast_cell_kernel_sums_densities_left_to_right():
    # View 1's group of costs 4, 20 and 30 has density 1/4 + 1/20 + 1/30,
    # which is 1/3 added left to right and above it added right to left.
    # It ties view 0's one member at cost 3, and the lower view fills first.
    inst = _one_cell(
        [[9, 4], [9, 20], [9, 30], [3, 9]], [[1, 1]] * 4,
        [[0, 1], [0, 1], [0, 1], [1, 0]],
    )
    assert 1 / 4 + 1 / 20 + 1 / 30 == 1 / 3 < 1 / 30 + 1 / 20 + 1 / 4
    alloc, _ = solvers._one_cell(inst, 0, [0, 1, 2, 3], 3.0, MULTICAST)
    assert alloc == reference.group_fill(inst, 0, [0, 1, 2, 3], 3.0) == {(3, 0): 1.0}


def test_multicast_cell_kernel_gives_a_whole_pair_outside_a_group_one():
    # 49 * (1 / 49) rounds below 1; 49 / 49 does not. The group of view 1
    # fills first, then the pairs outside it in fill order.
    inst = _one_cell([[49, 30], [60, 30]], [[0, 1], [0, 1]])
    alloc, value = solvers._one_cell(inst, 0, [0, 1], 100.0, MULTICAST)
    ref_alloc, ref_value = reference.solve_cell_subproblem_multicast(inst, 0, [0, 1], 100.0)
    assert list(alloc.items()) == [
        ((0, 1), 1.0), ((1, 1), 1.0), ((0, 0), 1.0), ((1, 0), 21 / 60)
    ]
    assert ref_alloc[(0, 0)] == 0.9999999999999999
    _assert_value_is_the_share_sum(alloc, value, ref_value)


@SETTINGS
@given(instances(), st.sampled_from([UNICAST, MULTICAST]), st.sampled_from([0.0, 0.5, 1.0, 3.0]))
def test_eva_matches_per_view_loop(inst, mode, p):
    # The association only: EVA's allocation is ``_finalize``'s, pinned by
    # test_solvers' property over every solver.
    sol, rep = solve_eva(inst, p=p, mode=mode)
    ref_assoc, ref_tie_breaks = reference.solve_eva(inst, p=p)
    assert sol.assoc.tolist() == ref_assoc.tolist()
    assert rep.tie_breaks == ref_tie_breaks


@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
def test_eva_orders_a_view_at_the_largest_cost_after_an_unrewardable_one(mode):
    # User 0's view 1 costs 2**63 - 1, next to view 0, which it does not
    # want. Both users sit at the one cell, whose basic layer broadcasts in
    # 1 RB; the exact subproblem fills the 5 RBs left, the top cost neither
    # wrapping nor taking view 0's place.
    top = np.iinfo(np.int64).max
    inst = Instance(
        n_users=2, n_cells=1, n_views=3, w=[[[0, 1, 1]], [[1, 1, 0]]], rb_budget=[6],
        rb_basic=[[1], [1]], rb_enhanced=[[[top, top, 3]], [[2, top, top]]],
        sharing=[[0, 1, 1], [1, 1, 0]],
    )
    sol, rep = solve_eva(inst, mode=mode)
    ref_assoc, ref_tie_breaks = reference.solve_eva(inst)
    assert sol.assoc.tolist() == ref_assoc.tolist() == [0, 0]
    assert rep.tie_breaks == ref_tie_breaks
    cell = (reference.solve_cell_subproblem_multicast if mode == MULTICAST
            else reference.solve_cell_subproblem)
    ref_alloc, ref_value = cell(inst, 0, [0, 1], 5.0)
    assert _items(sol.alloc) == _items(ref_alloc)
    assert _bits([rep.objective]) == _bits([ref_value])
    assert all(0.0 <= y <= 1.0 for y in sol.alloc.values())
    assert is_feasible(inst, sol, mode).feasible


@SETTINGS
@given(instances(), st.sampled_from([UNICAST, MULTICAST]), st.data())
def test_elva_fill_keeps_the_budget_trajectory_of_its_loop(inst, mode, data):
    # ELVA's fills, from its gain tables and its integer budgets, against the
    # reference fill of the instance's views by cost, then view: the budget
    # left and the group charges after every fill, bit for bit.
    multicast = mode == MULTICAST
    costs, _, views = solvers._gain_tables(inst, multicast)
    shared = inst.sharing.tolist()
    mine = (inst.rb_budget.astype(float) - solvers.compute_nbar(inst)).tolist()
    ref = list(mine)
    paid = [{} for _ in range(inst.n_cells)]
    ref_paid = [{} for _ in range(inst.n_cells)]
    for i in data.draw(st.permutations(range(inst.n_users))):
        j = data.draw(st.integers(0, inst.n_cells - 1))
        items = reference.view_items(inst, i, j, multicast)
        assert solvers._pair_items(costs, views, shared, i, j) == reference.fill_items(items)
        mine[j] = solvers._fill(reference.fill_items(items), mine[j], paid[j])
        _, ref[j] = reference.fill(items, ref[j], ref_paid[j])
        assert _bits([mine[j]]) == _bits([ref[j]])
        assert _items(paid[j]) == _items(ref_paid[j])


@st.composite
def fill_cases(draw):
    """Fill items with integer costs, as RB tables hold, up to
    ``UNREACHABLE_RBS``, in and out of sharing groups that may recur within
    one call; an integer budget, spent (-0.0 included) or not, as a float or
    an int; and integer charges already paid, some at or above an item's
    cost, so that a member rides its group."""
    n = draw(st.integers(0, 6))
    costs = st.sampled_from([1, 2, 3, 5, 25, 49, UNREACHABLE_RBS])
    items = [(draw(costs), k, draw(st.one_of(st.none(), st.integers(0, 2)))) for k in range(n)]
    paid = draw(st.dictionaries(st.integers(0, 2), st.integers(0, 60).map(float), max_size=3))
    budgets = st.integers(-3, 60)
    left = draw(st.one_of(st.sampled_from([0.0, -0.0]), budgets, budgets.map(float)))
    return items, left, paid


@settings(max_examples=500, deadline=None)
@given(fill_cases())
# A rider at a spent budget of -0.0, then a single at that budget.
@example(([(3, 0, 1), (2, 1, None)], -0.0, {1: 3.0}))
# 7 RBs buy 7 / 25 of a view and leave exactly 0; a member at cost 28
# rides the group's charge of 7, and one at cost 5 takes its view whole.
@example(([(25, 0, 0), (28, 1, 0), (5, 2, 0)], 7.0, {}))
def test_fill_matches_min_max_loop(case):
    items, left, paid = case
    ref_paid = dict(paid)
    mine = solvers._fill(reference.fill_items(items), left, paid)
    _, ref = reference.fill(items, left, ref_paid)
    assert _bits([mine]) == _bits([ref])
    assert _items(paid) == _items(ref_paid)
    # Integers stay integers; a budget never rises, and one that started at
    # 0 or more never goes below 0.
    assert all(float(v).is_integer() for v in [mine, *paid.values()])
    assert mine <= left
    if left >= 0:
        assert mine >= 0


def _fill_in_turn(inst, users, left):
    """``_fill`` over each user's views at cell 0 in multicast, as ELVA
    fills, against ``reference.fill``; the shares ``reference.fill`` takes
    and the budget left after each user."""
    paid, ref_paid = {}, {}
    ref_left = left
    steps = []
    for i in users:
        items = reference.view_items(inst, i, 0, True)
        left = solvers._fill(reference.fill_items(items), left, paid)
        taken, ref_left = reference.fill(items, ref_left, ref_paid)
        assert _bits([left]) == _bits([ref_left]) and _items(paid) == _items(ref_paid)
        steps.append((taken, left))
    return steps


def test_member_rides_its_group_after_the_budget_is_spent():
    # User 0 spends the cell's 4 enhanced RBs on view 0. Users 1 and 2, in
    # the same sharing group, then take the view whole at no charge; user 1's
    # cheaper copy must not lower what the group pays before user 2 rides.
    inst = Instance(
        n_users=3, n_cells=1, n_views=1, w=np.ones((3, 1, 1)),
        rb_budget=[5], rb_basic=[[1], [1], [1]], rb_enhanced=[[[4]], [[2]], [[3]]],
        sharing=[[1], [1], [1]],
    )
    steps = _fill_in_turn(inst, [0, 1, 2], 4.0)
    assert steps == [([((i, 0), 1.0)], 0.0) for i in range(3)]
    alloc = dict(pair for taken, _ in steps for pair in taken)
    solution = Solution(assoc=np.zeros(3, dtype=np.int64), alloc=alloc)
    assert is_feasible(inst, solution, MULTICAST).feasible


def test_member_rides_the_group_charge_not_a_negative_remainder():
    # 8 - 1 = 7 RBs buy 7 / 25 of user 0's view and leave exactly 0 (where
    # (7 / 25) * 25 would round above 7). User 1 rides the whole charge of 7.
    inst = Instance(
        n_users=2, n_cells=1, n_views=1, w=np.ones((2, 1, 1)),
        rb_budget=[8], rb_basic=[[1], [1]], rb_enhanced=[[[25]], [[28]]],
        sharing=[[1], [1]],
    )
    (first, left), (second, _) = _fill_in_turn(inst, [0, 1], 7.0)
    assert first == [((0, 0), 7 / 25)] and _bits([left]) == _bits([0.0])
    assert second == [((1, 0), 0.25)]


@settings(max_examples=200, deadline=None)
@given(instances(sharing=False), st.data())
def test_gain_column_matches_per_user_loop(inst, data):
    costs, prefix, _ = solvers._gain_tables(inst)
    j = data.draw(st.integers(0, inst.n_cells - 1))
    budget = data.draw(st.one_of(st.floats(-2.0, 30.0), st.integers(-2, 30).map(float)))
    mine = solvers._gain_column(costs[j], prefix[j], budget)
    ref = [
        reference.single_user_gain(
            inst.rb_enhanced[i, j][inst.w[i, j].astype(bool)], budget
        )
        for i in range(inst.n_users)
    ]
    assert _bits(mine) == _bits(ref)


def _pair_value(costs, i, j, budget):
    """ELVA's re-score of pair (i, j): ``_cell_value`` over its costs."""
    return _cell_value(solvers._pair_costs(costs, i, j), budget)


def _assert_pair_costs_are_sorted_rewardable_costs(inst, costs):
    for i, j in itertools.product(range(inst.n_users), range(inst.n_cells)):
        ref = sorted(float(c) for c in inst.rb_enhanced[i, j][inst.w[i, j] == 1])
        assert solvers._pair_costs(costs, i, j) == ref


@SETTINGS
@given(instances(costs=st.one_of(st.integers(1, 5), st.integers(1, 2**63 - 1))))
def test_pair_costs_are_the_sorted_rewardable_costs(inst):
    # ELVA's fills and re-scores and bb's children read a pair's costs here.
    costs, _, _ = solvers._gain_tables(inst)
    _assert_pair_costs_are_sorted_rewardable_costs(inst, costs)


@settings(max_examples=200, deadline=None)
@given(instances(costs=st.one_of(st.integers(1, 5), st.integers(1, 2**63 - 1))), st.data())
def test_cell_value_matches_gain_column(inst, data):
    # ELVA re-scores one pair with ``_cell_value`` over ``_pair_costs``,
    # which must give ``_gain_column``'s bits at spent, subnormal and huge
    # budgets and at budgets equal to a prefix sum, where the next share is
    # 0. Costs up to 2**63 - 1 give inexact prefix sums.
    costs, prefix, _ = solvers._gain_tables(inst)
    sums = prefix[np.isfinite(prefix)].tolist()
    budget = st.one_of(
        st.sampled_from([0.0, -0.0, -1.0, 5e-324, 2.0**64]),
        st.sampled_from(sums),
        st.floats(-2.0, 30.0),
        st.floats(0.0, 2.0**66),
    )
    for j in range(inst.n_cells):
        b = data.draw(budget)
        column = solvers._gain_column(costs[j], prefix[j], b)
        users = [_pair_value(costs, i, j, b) for i in range(inst.n_users)]
        assert _bits(users) == _bits(column)


def _assert_gains_match_loop(inst, budgets):
    """``_gain_column`` and ``_cell_value`` over ``_pair_costs`` at every
    cell and budget against the per-user loop, and ``_pair_costs`` against
    the sorted rewardable costs; returns the tables."""
    costs, prefix, _ = solvers._gain_tables(inst)
    _assert_pair_costs_are_sorted_rewardable_costs(inst, costs)
    for j in range(inst.n_cells):
        for budget in budgets:
            mine = solvers._gain_column(costs[j], prefix[j], budget)
            users = [_pair_value(costs, i, j, budget) for i in range(inst.n_users)]
            ref = [
                reference.single_user_gain(
                    inst.rb_enhanced[i, j][inst.w[i, j].astype(bool)], budget
                )
                for i in range(inst.n_users)
            ]
            assert _bits(mine) == _bits(users) == _bits(ref)
    return costs, prefix


def _gain_instance(w, rb_enhanced):
    w = np.asarray(w)
    m, s, e = w.shape
    return Instance(
        n_users=m, n_cells=s, n_views=e, w=w, rb_budget=np.full(s, 50),
        rb_basic=np.ones((m, s)), rb_enhanced=rb_enhanced,
    )


def test_gain_tables_read_their_pad_row_when_a_pair_rewards_every_view():
    # User 0 rewards all 3 views at cell 0 (costs 1 + 2 + 4 = 7): R = E = 3.
    # At a budget of 7 or more all three fit, and the share of the next view
    # is read from the pad row.
    inst = _gain_instance(
        [[[1, 1, 1], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]],
        [[[2, 1, 4], [3, 3, 3]], [[5, 1, 1], [2, 2, 2]]],
    )
    costs, prefix = _assert_gains_match_loop(inst, [6.5, 7.0, 8.5, 100.0])
    assert costs.shape == prefix.shape == (2, 4, 2)
    assert np.isinf(costs[:, 3]).all()
    assert solvers._pair_costs(costs, 0, 0) == [1.0, 2.0, 4.0]
    assert solvers._gain_column(costs[0], prefix[0], 7.0).tolist() == [3.0, 1.0]


def test_gain_tables_of_an_instance_without_rewardable_views():
    # R = 0: one row, +inf costs over zero prefix sums, and every gain 0.
    inst = _gain_instance(np.zeros((2, 3, 2)), np.full((2, 3, 2), 4))
    costs, prefix = _assert_gains_match_loop(inst, [-1.0, 0.0, 3.0, 1e9])
    assert costs.shape == prefix.shape == (3, 1, 2)
    assert np.isinf(costs).all() and not prefix.any()
    assert solvers._pair_costs(costs, 1, 2) == []


def test_gain_at_a_budget_equal_to_a_prefix_sum():
    # R = 2 < E = 4. At budgets 1, 3 and 4 the views that fit end exactly
    # at the budget, and the next share is 0: over the next view's cost, or
    # over the pad row for a user out of views.
    inst = _gain_instance(
        [[[1, 0, 1, 0]], [[0, 0, 0, 1]], [[0, 1, 1, 0]]],
        [[[1, 9, 2, 9]], [[9, 9, 9, 3]], [[9, 4, 5, 9]]],
    )
    costs, prefix = _assert_gains_match_loop(inst, [1.0, 3.0, 4.0, 9.0])
    assert costs.shape == (1, 3, 3)
    assert solvers._gain_column(costs[0], prefix[0], 3.0).tolist() == [2.0, 1.0, 0.75]


def test_gain_at_an_inexact_prefix_sum_counts_the_last_view_whole():
    # c0 + c1 rounds to the float total, and total - c0 is not c1: the share
    # of c1 at budget total falls short of 1. Both views fit whole, so the
    # gain is 2, not 1 + that share.
    c0, c1 = 2824321496301653000, 2887546693489624576
    total = float(c0) + float(c1)
    assert 1 + (total - c0) / c1 < 2
    inst = _gain_instance([[[1, 1]]], [[[c0, c1]]])
    costs, prefix = _assert_gains_match_loop(inst, [total])
    assert _pair_value(costs, 0, 0, total) == 2.0


def test_gain_at_a_spent_budget_is_zero():
    inst = _gain_instance([[[1, 1]], [[0, 1]]], [[[1, 2]], [[3, 1]]])
    costs, prefix = _assert_gains_match_loop(inst, [0.0, -0.0, -1e-16, -5.0])
    assert _bits(solvers._gain_column(costs[0], prefix[0], -0.0)) == _bits([0.0, 0.0])


def _assert_same_elva(inst, mode, oracle=reference.solve_elva_full_scan):
    sol, rep = solve_elva(inst, mode=mode)
    ref_sol, ref_rep = oracle(inst, mode=mode)
    assert list(sol.assoc) == list(ref_sol.assoc)
    assert _items(sol.alloc) == _items(ref_sol.alloc)
    assert _bits([rep.objective]) == _bits([ref_rep.objective])
    assert rep.tie_breaks == ref_rep.tie_breaks
    return sol, rep


@st.composite
def tied_instances(draw):
    """Up to 20 users on 2-4 cells, each pair's views at one cost (as on
    every preset) of 1 or 2, over budgets that leave 0-8 RBs a cell: most
    rounds tie, in long runs at one maximum."""
    m = draw(st.integers(1, 20))
    s = draw(st.integers(2, 4))
    e = draw(st.integers(1, 4))
    w = draw(st.lists(st.integers(0, 1), min_size=m * s * e, max_size=m * s * e))
    nb = np.array(draw(st.lists(st.integers(1, 2), min_size=m * s, max_size=m * s)))
    pair_cost = draw(st.lists(st.integers(1, 2), min_size=m * s, max_size=m * s))
    left = draw(st.lists(st.integers(0, 8), min_size=s, max_size=s))
    sharing = draw(st.lists(st.integers(0, 1), min_size=m * e, max_size=m * e))
    nbar = nb.reshape(m, s).min(axis=1).max()
    return Instance(
        n_users=m, n_cells=s, n_views=e, w=np.reshape(w, (m, s, e)),
        rb_budget=nbar + np.array(left), rb_basic=nb.reshape(m, s),
        rb_enhanced=np.repeat(np.reshape(pair_cost, (m, s, 1)), e, axis=2),
        sharing=np.reshape(sharing, (m, e)),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(instances(), tied_instances()),
    st.sampled_from([UNICAST, MULTICAST]),
    st.booleans(),
)
def test_elva_matches_full_scan_elva(inst, mode, starve):
    # The strategy's budgets fall below some basic costs; ``starve`` also
    # prices user 0 out of every cell, so that it ranks all of them.
    if starve:
        nb = inst.rb_basic.copy()
        nb[0] = inst.rb_budget + 1
        inst = dataclasses.replace(inst, rb_basic=nb)
    _assert_same_elva(inst, mode)


def _flat_instance(w, rb_basic, rb_budget, sharing=None):
    """One view, enhanced cost 1 everywhere."""
    w = np.asarray(w).reshape(len(rb_basic), len(rb_budget), 1)
    m, s, _ = w.shape
    return Instance(
        n_users=m, n_cells=s, n_views=1, w=w, rb_budget=rb_budget,
        rb_basic=rb_basic, rb_enhanced=np.ones((m, s, 1)), sharing=sharing,
    )


def test_elva_counts_a_last_round_tie_within_one_users_cells():
    # User 0 goes first on its one rewarded view. User 1 wants nothing, so
    # in the last round its two cells tie at 0: the round counts, and the
    # cheaper cell wins.
    inst = _flat_instance([[1, 0], [0, 0]], [[1, 1], [2, 1]], [10, 10])
    sol, rep = _assert_same_elva(inst, UNICAST)
    assert list(sol.assoc) == [0, 1]
    assert rep.tie_breaks == 1


def test_elva_breaks_ties_across_users_by_basic_cost_then_user():
    # Every score is 0. Round 1: users 1 and 2 cost 1 at cell 0, and user 1,
    # the lower, wins. Round 2: user 2 at cost 1 beats user 0 at cost 2.
    inst = _flat_instance(np.zeros(6), [[2, 3], [1, 2], [1, 3]], [10, 10])
    sol, rep = _assert_same_elva(inst, UNICAST)
    assert list(sol.assoc) == [0, 0, 0]
    assert rep.tie_breaks == 3


@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
def test_elva_rescores_a_listed_pair_after_a_fill_at_its_cell(mode):
    # Budgets 5 - nbar 3 = 2 at both cells, every view costs 2. Users 0 and
    # 1 at cell 0 and user 2 at cell 1 tie at gain 1, listed in that order.
    # User 0's fill spends cell 0, so user 1's pair there drops to 0 and the
    # next round takes user 2's pair at cell 1. User 1 is then placed at its
    # first open slot, cell 1; taking its listed pair would put it at cell 0.
    inst = Instance(
        n_users=3, n_cells=2, n_views=1, w=[[[1], [0]], [[1], [0]], [[0], [1]]],
        rb_budget=[5, 5], rb_basic=[[1, 3], [2, 1], [3, 3]],
        rb_enhanced=np.full((3, 2, 1), 2),
    )
    sol, rep, calls = _elva_counting(inst, mode)
    assert list(sol.assoc) == [0, 1, 1]
    assert rep.tie_breaks == 1 + 0 + 1
    assert calls == {"fills": 2, "endgames": 1}


def test_elva_skips_a_rewrite_the_fill_leaves_unchanged():
    # Budgets start at 1 (3 - nbar 2). Users 0 and 1 share view 0 at cell 0:
    # user 0's fill spends the budget, and user 1 rides the group's charge,
    # leaving it at 0. User 2 wants nothing and takes cell 1, whose budget
    # stays 1. Only user 0's fill moves a budget, so the solver computes one
    # gain column, at the end of its batch, after the two initial ones; the
    # full scan rewrites a column every round, to the same result.
    inst = _flat_instance(
        [[1, 0], [1, 0], [0, 0]], [[2, 2], [2, 2], [3, 2]], [3, 3],
        sharing=[[1], [1], [0]],
    )
    budgets = []
    gain_column = solvers._gain_column

    def counted(costs_j, prefix_j, budget):
        budgets.append(budget)
        return gain_column(costs_j, prefix_j, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_gain_column", counted)
        sol, rep = _assert_same_elva(inst, MULTICAST)
    assert list(sol.assoc) == [0, 0, 1]
    assert budgets == [1.0, 1.0, 0.0]
    assert rep.tie_breaks == 3


def _elva_counting(inst, mode):
    """``_assert_same_elva``, and how many rounds filled a user's views and
    how often the zero-score endgame ran."""
    calls = {"fills": 0, "endgames": 0}
    fill, settle = solvers._fill, solvers._settle_zero_rounds

    def counted_fill(*args):
        calls["fills"] += 1
        return fill(*args)

    def counted_settle(*args):
        calls["endgames"] += 1
        return settle(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_fill", counted_fill)
        mp.setattr(solvers, "_settle_zero_rounds", counted_settle)
        sol, rep = _assert_same_elva(inst, mode)
    return sol, rep, calls


@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
def test_elva_settles_every_round_at_once_when_no_budget_exceeds_nbar(mode):
    # nbar = 2 and the budgets 2, 1 and 2 reduce to 0, -1 and 0: every gain
    # is 0 from round 0, so no user's views are filled. The open slots run
    # (1, 0), (1, 1), (3, 2), (0, 0), (2, 2), so users 1, 3, 0 and 2 take
    # cells 0, 2, 0 and 2; user 2, placed last, has one open slot.
    inst = Instance(
        n_users=4, n_cells=3, n_views=2, w=np.ones((4, 3, 2)),
        rb_budget=[2, 1, 2], rb_basic=[[2, 3, 3], [1, 1, 3], [3, 3, 2], [3, 3, 1]],
        rb_enhanced=np.ones((4, 3, 2)), sharing=[[1, 0], [1, 1], [0, 1], [1, 1]],
    )
    sol, rep, calls = _elva_counting(inst, mode)
    assert list(sol.assoc) == [0, 0, 2, 2]
    assert rep.tie_breaks == 3
    assert calls == {"fills": 0, "endgames": 1}


@pytest.mark.parametrize(
    "rb_basic_user0, rb_basic_user2, assoc, tie_breaks",
    [
        # User 0's cell 1 is unaffordable: placed last, it has one open slot,
        # while user 2, the highest index, has two.
        ([3, 9], [2, 1], [0, 0, 1], 2),
        # User 0, placed last, has two open slots; user 2 has one.
        ([3, 4], [9, 1], [0, 0, 1], 3),
    ],
    ids=["last-has-one-open-slot", "last-has-two-open-slots"],
)
@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
def test_elva_counts_the_last_zero_round_by_the_user_placed_last(
    mode, rb_basic_user0, rb_basic_user2, assoc, tie_breaks
):
    # No rewards, so every round scores 0. Users are placed in the order of
    # their first open slots: user 1 at basic cost 1, user 2 at 1 after it,
    # and user 0 at 3. Each round but the last ties with the users left.
    inst = _flat_instance(
        np.zeros(6), [rb_basic_user0, [1, 2], rb_basic_user2], [5, 5]
    )
    sol, rep, calls = _elva_counting(inst, mode)
    assert list(sol.assoc) == assoc
    assert rep.tie_breaks == tie_breaks
    assert calls == {"fills": 0, "endgames": 1}


@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
def test_elva_settles_multicast_riders_on_a_spent_cell(mode):
    # Budgets 5 - nbar 1 = 4 at cell 0, 0 at cell 1. Users 0 and 2 tie at
    # gain 1 at cell 0, and user 0 takes it: its view 0 costs 4 and spends
    # the cell. Users 1 and 2 share view 0 and, in multicast, would ride its
    # charge; their scores are 0, so the endgame places them at their first
    # open slots, cells 1 and 0, and the final re-solve lets user 2 ride.
    inst = Instance(
        n_users=3, n_cells=2, n_views=2, w=[[[1, 0], [0, 0]], [[1, 1], [1, 0]], [[1, 0], [1, 1]]],
        rb_budget=[5, 1], rb_basic=[[1, 1], [2, 1], [1, 1]],
        rb_enhanced=[[[4, 9], [9, 9]], [[5, 9], [3, 9]], [[4, 9], [2, 2]]],
        sharing=[[1, 0], [1, 0], [1, 1]],
    )
    sol, rep, calls = _elva_counting(inst, mode)
    assert list(sol.assoc) == [0, 1, 0]
    assert rep.tie_breaks == 1 + 1 + 1
    assert calls == {"fills": 1, "endgames": 1}
    if mode == MULTICAST:
        assert sol.alloc[(2, 0)] == 1.0


# Ascending costs over which a fill that spends y * cost for a share
# y = budget / cost would leave 8.095e-320 of a budget of 1.
COST_CHAIN = [49, 98, 103, 107, 161, 187, 196, 197, 206, 214, 237, 239,
              249, 253, 322, 347, 374, 389, 392, 394]


@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
def test_elva_settles_the_rest_once_a_fill_leaves_exactly_0(mode):
    # Budgets 2 - nbar 1 = 1 and 0. User 0's first view at cell 0 costs 49,
    # so its fill takes 1 / 49 of it and leaves exactly 0. Every score is
    # then 0: user 1 takes its first open slot, cell 0, and user 2 its
    # cheaper cell 1.
    e = len(COST_CHAIN) + 1
    w = np.zeros((3, 2, e), dtype=np.int8)
    w[0, 0, :-1] = 1
    w[1, 0, -1] = 1
    costs = np.full((3, 2, e), 10**6)
    costs[0, 0, :-1] = COST_CHAIN
    inst = Instance(
        n_users=3, n_cells=2, n_views=e, w=w, rb_budget=[2, 1],
        rb_basic=[[1, 1], [1, 1], [2, 1]], rb_enhanced=costs,
        sharing=np.ones((3, e), dtype=np.int8),
    )
    left = solvers._fill(reference.fill_items(reference.view_items(inst, 0, 0, False)), 1.0, {})
    assert left == 0
    sol, rep, calls = _elva_counting(inst, mode)
    assert list(sol.assoc) == [0, 0, 1]
    assert rep.tie_breaks == 1 + 1
    assert calls == {"fills": 1, "endgames": 1}


@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
def test_elva_sends_the_next_user_to_the_endgame_at_exactly_0(mode):
    # Budgets 2 - nbar 1 = 1 and 0. User 0 goes first (1 / 49 beats user
    # 1's 1 / 100) and spends cell 0's budget to exactly 0 (where
    # 49 * (1 / 49) would round below 1). Every score is then 0, so the
    # endgame places user 1 at its first open slot, cell 1, and user 2 at
    # cell 0.
    inst = Instance(
        n_users=3, n_cells=2, n_views=2, w=[[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]]],
        rb_budget=[2, 1], rb_basic=[[1, 1], [2, 1], [1, 1]],
        rb_enhanced=[[[49, 9], [9, 9]], [[9, 100], [9, 9]], [[9, 9], [9, 9]]],
        sharing=[[1, 1], [1, 1], [0, 0]],
    )
    sol, rep, calls = _elva_counting(inst, mode)
    assert list(sol.assoc) == [0, 1, 0]
    assert rep.tie_breaks == 2
    assert calls == {"fills": 1, "endgames": 1}


@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
def test_elva_without_a_zero_round_never_enters_the_endgame(mode):
    # Budgets of 100 - nbar 1 cover every user's two views at either cell:
    # every score is 2, and every round ties.
    inst = Instance(
        n_users=3, n_cells=2, n_views=2, w=np.ones((3, 2, 2)), rb_budget=[100, 100],
        rb_basic=[[1, 2], [2, 1], [1, 1]], rb_enhanced=np.ones((3, 2, 2)),
        sharing=[[1, 0], [0, 0], [1, 1]],
    )
    sol, rep, calls = _elva_counting(inst, mode)
    assert list(sol.assoc) == [0, 1, 0]
    assert rep.tie_breaks == 3
    assert calls == {"fills": 3, "endgames": 0}


def _stable_order(rb_basic):
    return np.argsort(np.asarray(rb_basic).ravel(), kind="stable").tolist()


@settings(max_examples=200, deadline=None)
@given(instances())
def test_slot_order_is_the_stable_basic_cost_order(inst):
    # Few distinct basic costs, so most keys share their cost.
    assert solvers._slot_order(inst.rb_basic).tolist() == _stable_order(inst.rb_basic)


def test_slot_order_falls_back_where_the_composite_key_would_wrap():
    # With 4 pairs, a cost above (2**63 - 1 - 4) // 4 = 2**61 - 2 takes the
    # stable sort: (2**62 + 1) * 4 wraps to 4, which would put pair (0, 0)
    # before the cost-3 pair (1, 0).
    big = 2**62
    top = (np.iinfo(np.int64).max - 4) // 4
    for nb in ([[big + 1, big], [3, big + 1]], [[top, 1], [top, top]], [[top + 1, 1], [2, top + 1]]):
        assert solvers._slot_order(np.array(nb)).tolist() == _stable_order(nb)
    # End to end: as floats, the budgets 2**62 + 2 equal nbar = 2**62, so
    # every gain is 0 and the slot order alone places the users.
    inst = Instance(
        n_users=2, n_cells=2, n_views=1, w=np.ones((2, 2, 1)),
        rb_budget=[big + 2, big + 2], rb_basic=[[big + 1, big], [3, big + 1]],
        rb_enhanced=np.ones((2, 2, 1)),
    )
    sol, _ = _assert_same_elva(inst, UNICAST)
    assert list(sol.assoc) == [1, 0]


def test_slot_order_without_users():
    assert solvers._slot_order(np.ones((0, 3), dtype=np.int64)).tolist() == []
    inst = Instance(
        n_users=0, n_cells=3, n_views=2, w=np.ones((0, 3, 2)), rb_budget=[5, 5, 5],
        rb_basic=np.ones((0, 3)), rb_enhanced=np.ones((0, 3, 2)),
    )
    sol, rep = solve_elva(inst)
    assert sol.assoc.size == 0 and sol.alloc == {} and rep.tie_breaks == 0


@settings(max_examples=300, deadline=None)
@given(instances(), st.sampled_from([UNICAST, MULTICAST]))
def test_elva_matches_penalty_elva_where_every_user_has_an_affordable_cell(inst, mode):
    # The old penalty scored an unaffordable pair (N_j - nb_ij) * T + gain
    # <= E - T < 0, below every affordable pair's gain >= 0, so it was never
    # a row's best nor tied with it: ranking eligible cells only is the same.
    assume((inst.rb_basic <= inst.rb_budget).any(axis=1).all())
    _assert_same_elva(inst, mode, reference.solve_elva)


def _assert_cells_match_loops(inst, solution, total, mode):
    """``_finalize``'s result against the per-cell loops, each at its cell's
    integer residual, which is negative at a cell whose broadcast exceeds
    its budget: the entries in cell order, and the total is the objective."""
    assoc = solution.assoc
    residual = inst.rb_budget - broadcast_cost(inst, assoc)
    cells = [assoc[i] for i, _ in solution.alloc]
    assert cells == sorted(cells)
    for j in range(inst.n_cells):
        users = np.flatnonzero(assoc == j).tolist()
        mine = {key: y for key, y in solution.alloc.items() if assoc[key[0]] == j}
        _assert_cell_matches_loop(inst, j, users, float(residual[j]), mode, mine)
    assert _bits([total]) == _bits([objective(inst, solution)])


@SETTINGS
@given(st.data(), st.sampled_from([UNICAST, MULTICAST]))
def test_finalize_matches_the_cell_loops_at_every_cell(data, mode):
    # Any association, users at cells they cannot afford included. A cost
    # of 49, whose (1 / 49) * 49 rounds below 1, gives the unicast loop
    # float remainders.
    inst = data.draw(instances(costs=st.sampled_from([1, 2, 3, 4, 5, 49])))
    cell = st.integers(0, inst.n_cells - 1)
    assoc = data.draw(st.lists(cell, min_size=inst.n_users, max_size=inst.n_users))
    solution, total = solvers._finalize(inst, np.array(assoc, dtype=np.int64), mode)
    _assert_cells_match_loops(inst, solution, total, mode)


@SETTINGS
@given(
    instances(costs=st.sampled_from([1, 2, 49])),
    st.sampled_from(["sinr", "eva", "elva", "bb"]),
    st.sampled_from([UNICAST, MULTICAST]),
)
# 1 RB is left for two 49-RB views; 1 - (1 / 49) * 49 is 1.1e-16.
@example(
    dataclasses.replace(_two_users_at_49_and_50(), rb_budget=np.array([2])),
    "sinr", UNICAST,
)
def test_no_solver_leaves_a_remainder_share(inst, solver, mode):
    # Every take is exact, so no share is a float remainder below 1e-9.
    solution, _ = getattr(solvers, f"solve_{solver}")(inst, mode=mode)
    assert not [y for y in solution.alloc.values() if 0 < y < 1e-9]


@pytest.mark.parametrize("solver", ["sinr", "elva"])
def test_solvers_match_with_reference_cell_fill(solver, rng):
    # The allocation kernel inside the solvers' final allocation, on
    # instances with many equal costs, against the per-cell loops.
    solve = getattr(solvers, f"solve_{solver}")
    for _ in range(40):
        m, s, e = 8, 3, 4
        inst = Instance(
            n_users=m, n_cells=s, n_views=e,
            w=rng.integers(0, 2, (m, s, e)),
            rb_budget=rng.integers(5, 40, s),
            rb_basic=rng.integers(1, 4, (m, s)),
            rb_enhanced=rng.choice([1, 2, 3, 5, 49], (m, s, e)),
            sharing=rng.integers(0, 2, (m, e)),
        )
        for mode in (UNICAST, MULTICAST):
            solution, report = solve(inst, mode=mode)
            _assert_cells_match_loops(inst, solution, report.objective, mode)


def _bb_record(solution, report):
    return (
        solution.assoc.tolist(),
        _items(solution.alloc),
        float(report.objective).hex(),
        report.nodes_explored,
        report.nodes_pruned,
        report.node_budget_hit,
    )


def _three_riders():
    """Users 1, 3 and 4 want view 0 at cell 0 alone, at costs 3, 3 and 2;
    3 and 4 share it. Their value at 4 RBs, 2 + 1/3, is 2.3333333333333335
    as the kernel adds its shares, 2.333333333333333 as the two-kind loop
    adds density * take."""
    w = np.zeros((6, 4, 1))
    w[[1, 3, 4], 0] = 1
    ne = np.ones((6, 4, 1))
    ne[[1, 3, 4], 0] = [[3], [3], [2]]
    return Instance(
        n_users=6, n_cells=4, n_views=1, w=w, rb_budget=[5, 1, 1, 1],
        rb_basic=np.ones((6, 4)), rb_enhanced=ne, sharing=[[0], [0], [0], [1], [1], [0]],
    )


@settings(max_examples=300, deadline=None)
@given(
    instances(),
    st.sampled_from([UNICAST, MULTICAST]),
    st.one_of(st.none(), st.sampled_from([0, 1]), st.integers(2, 40)),
)
# The numpy search must value a multicast cell by the kernel's share sum:
# with the two-kind loop's sum it explores 25 nodes here, not 33.
@example(inst=_three_riders(), mode=MULTICAST, node_budget=None)
def test_bb_explores_the_nodes_of_the_numpy_search(inst, mode, node_budget):
    # Same nodes, prunes and limit flag, and the same result bit for bit.
    mine = solve_bb(inst, node_budget=node_budget, mode=mode)
    ref = reference.solve_bb(inst, node_budget=node_budget, mode=mode)
    assert _bb_record(*mine) == _bb_record(*ref)


@settings(max_examples=100, deadline=None)
@given(instances(), st.sampled_from([UNICAST, MULTICAST]))
def test_exact_solvers_agree_with_budgets_below_basic_costs(inst, mode):
    # The strategy's budgets fall below some basic costs. Both solvers search
    # the same eligible cells; when every user has an affordable cell, both
    # results are feasible.
    bb_sol, bb = solve_bb(inst, mode=mode)
    bf_sol, bf = reference.solve_bruteforce(inst, mode=mode)
    assert bb.objective == pytest.approx(bf.objective, abs=1e-9)
    affordable = inst.rb_basic <= inst.rb_budget[None, :]
    if affordable.any(axis=1).all():
        assert is_feasible(inst, bb_sol, mode).feasible
        assert is_feasible(inst, bf_sol, mode).feasible


def _unit_record(solution, report):
    return (*_bb_record(solution, report), report.tie_breaks)


def _scale_rbs(inst, k):
    """``inst`` with every RB quantity k times as large."""
    return dataclasses.replace(
        inst, rb_budget=inst.rb_budget * k, rb_basic=inst.rb_basic * k,
        rb_enhanced=inst.rb_enhanced * k,
    )


# Views of 3 to 103 RBs at budgets 1 to 119 RBs above a cell's largest basic
# cost: a few views fit, and most fills end in a share.
@SETTINGS
@given(instances(costs=st.sampled_from([3, 7, 25, 49, 98, 103]), slack=st.integers(5, 123)))
def test_no_solver_result_depends_on_the_unit_of_rbs(inst):
    # Budgets, costs and charges stay integers, and every share and score is
    # one correctly rounded ratio of them, so k times the RBs moves no bit.
    for solver, mode in itertools.product(["sinr", "eva", "elva", "bb"], [UNICAST, MULTICAST]):
        solve = getattr(solvers, f"solve_{solver}")
        record = _unit_record(*solve(inst, mode=mode))
        for k in (2, 3, 7):
            assert _unit_record(*solve(_scale_rbs(inst, k), mode=mode)) == record


@pytest.mark.parametrize(
    "name, value, seed, mode",
    [("fig9", 2, 1, UNICAST), ("fig4", 5, 1, MULTICAST), ("fig10", None, 0, UNICAST)],
)
def test_no_preset_result_depends_on_the_unit_of_rbs(name, value, seed, mode):
    # Every solver of the preset, bb at the golden records' 2,000 nodes.
    point = dataclasses.replace(preset_config(name).at_sweep_value(value), node_budget=2000)
    inst, _ = build_experiment_instance(point, seed)
    scaled = _scale_rbs(inst, 3)
    for solver in point.solvers:
        record = _unit_record(*run_solver(solver, inst, point, mode))
        assert _unit_record(*run_solver(solver, scaled, point, mode)) == record


# Integer costs, as RB tables hold, and fractional ones, whose running sums
# round: there ``spent + cost == budget`` need not mean ``budget - spent == cost``.
COSTS = st.lists(
    st.one_of(st.integers(1, 9).map(float), st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7])),
    max_size=8,
).map(sorted)


@settings(max_examples=300, deadline=None)
@given(COSTS, st.data())
def test_cell_value_matches_prefix_search(costs, data):
    # Budgets at and just off every prefix sum (exact fits, and past the
    # last cost), at and below zero, and arbitrary fractions.
    prefix = list(itertools.accumulate(costs, initial=0.0))
    edge = data.draw(st.sampled_from(prefix))
    budget = data.draw(
        st.one_of(
            st.sampled_from([edge, edge + 1e-12, edge - 1e-12, edge + 0.5, edge + 100.0]),
            st.sampled_from([0.0, -0.0, -1.0, -1e-12, 5e-324]),
            st.floats(-5.0, 80.0),
        )
    )
    mine = _cell_value(costs, budget)
    ref = reference.cell_value_from_costs(np.array(costs, dtype=float), budget)
    assert _bits([mine]) == _bits([ref])


def test_cell_value_takes_a_cost_that_fits_exactly():
    # The third 0.7 fits a budget of 0.7 + 0.7 + 0.7 whole: the value is 3,
    # where its share, (budget - 1.4) / 0.7, would give 2.9999999999999996.
    budget = 0.7 + 0.7 + 0.7
    assert _cell_value([0.7, 0.7, 0.7], budget) == 3.0
    assert reference.cell_value_from_costs(np.array([0.7, 0.7, 0.7]), budget) == 3.0


def test_bb_fig7_anchor_at_the_default_node_budget():
    # fig7's 10-user point, seed 0: the benchmark's fig7-exact search.
    point = preset_config("fig7").at_sweep_value(10)
    inst, _ = build_experiment_instance(point, 0)
    _, report = solve_bb(inst, node_budget=point.node_budget)
    assert report.objective == 24.54122105876056
    assert report.nodes_explored == 1_000_000
    assert report.nodes_pruned == 711_499
    assert report.node_budget_hit

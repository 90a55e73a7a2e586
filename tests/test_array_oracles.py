"""The array code against the scalar loops in ``reference``: exact equality.

Every property compares values by their bits (``float.hex``), dicts by their
item order, and solver reports by their tie-break counts, on small instances
with sharing groups, many equal costs and scores, and allocation dicts built
in arbitrary order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from tiercast import solvers
from tiercast.problem import (
    FEAS_TOL,
    MULTICAST,
    UNICAST,
    Instance,
    Solution,
    is_feasible,
    objective,
    per_user_rewards,
    rb_usage,
)
from tiercast.solvers import _PairRanking, solve_cell_subproblem, solve_elva

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
def instances(draw, sharing=None):
    """Tiny instances; few distinct costs so that ties are common."""
    m = draw(st.integers(1, 6))
    s = draw(st.integers(1, 4))
    e = draw(st.integers(1, 4))
    w = np.array(draw(st.lists(st.integers(0, 1), min_size=m * s * e, max_size=m * s * e)))
    nb = np.array(draw(st.lists(st.integers(1, 3), min_size=m * s, max_size=m * s)))
    ne = np.array(draw(st.lists(st.integers(1, 5), min_size=m * s * e, max_size=m * s * e)))
    slack = np.array(draw(st.lists(st.integers(0, 12), min_size=s, max_size=s)))
    nb = nb.reshape(m, s)
    groups = None
    if draw(st.booleans()) if sharing is None else sharing:
        # Groups may be missing for some cells and views.
        groups = {}
        for j in range(s):
            if draw(st.booleans()):
                groups[j] = {
                    k: frozenset(draw(st.sets(st.integers(0, m - 1))))
                    for k in range(e)
                    if draw(st.booleans())
                }
    return Instance(
        n_users=m,
        n_cells=s,
        n_views=e,
        w=w.reshape(m, s, e),
        rb_budget=nb.max(axis=0) + slack,
        rb_basic=nb,
        rb_enhanced=ne.reshape(m, s, e),
        sharing=groups,
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
    inst = _one_user_all_views(2, sharing={0: {0: frozenset({0}), 1: frozenset({0})}})
    sol = Solution(assoc=np.array([0]), alloc={(0, 1): 0.2, (0, 0): 0.6})
    mine = rb_usage(inst, sol, MULTICAST)
    assert _bits(mine) == _bits(reference.rb_usage(inst, sol, MULTICAST))
    assert mine[0] == (1 + 0.2) + 0.6 != (1 + 0.6) + 0.2


def test_rb_usage_multicast_group_charge_skips_nan_like_max():
    inst = _one_user_all_views(1, sharing={0: {0: frozenset({0})}})
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


@st.composite
def cell_cases(draw):
    inst = draw(instances(sharing=False))
    cell = draw(st.integers(0, inst.n_cells - 1))
    users = draw(st.lists(st.integers(0, inst.n_users - 1), max_size=8))
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
            st.floats(-1.0, 40.0),
            st.integers(-1, 40).map(float),
        )
    )
    return inst, cell, users, budget


@settings(max_examples=300, deadline=None)
@given(cell_cases())
def test_unicast_cell_kernel_matches_fill_loop(case):
    inst, cell, users, budget = case
    mine = solve_cell_subproblem(inst, cell, users, budget)
    ref = reference.solve_cell_subproblem(inst, cell, users, budget)
    assert _items(mine.alloc) == _items(ref.alloc)
    assert _bits([mine.value]) == _bits([ref.value])
    assert mine.basic_infeasible == ref.basic_infeasible


def test_unicast_cell_kernel_keeps_tiny_remainder_share():
    # (1 / 49) * 49 rounds below 1, so the fill hands ~2e-18 to the next item.
    inst = Instance(
        n_users=2, n_cells=1, n_views=1, w=np.ones((2, 1, 1)),
        rb_budget=[100], rb_basic=[[1], [1]], rb_enhanced=[[[49]], [[50]]],
    )
    mine = solve_cell_subproblem(inst, 0, [0, 1], 1.0)
    ref = reference.solve_cell_subproblem(inst, 0, [0, 1], 1.0)
    assert _items(mine.alloc) == _items(ref.alloc)
    assert 0 < mine.alloc[(1, 0)] < 1e-9


@settings(max_examples=200, deadline=None)
@given(instances(sharing=False), st.data())
def test_gain_column_matches_per_user_loop(inst, data):
    costs, prefix = solvers._single_user_gain_tables(inst)
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


SCORES = st.sampled_from([-np.inf, -2.0, 0.0, 0.5, 1.0, 1.0, 2.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_ranking_matches_full_matrix_scan(data):
    m = data.draw(st.integers(1, 6))
    s = data.draw(st.integers(1, 5))
    scores = np.array(data.draw(st.lists(SCORES, min_size=m * s, max_size=m * s)))
    scores = scores.reshape(m, s)
    nb = np.array(data.draw(st.lists(st.integers(1, 3), min_size=m * s, max_size=m * s)))
    nb = nb.reshape(m, s)
    mine = _PairRanking(scores.copy(), nb)
    ref = reference.FullMatrixRanking(scores.copy(), nb)
    for _ in range(m):
        pick = mine.pick()
        assert pick == ref.pick()
        mine.drop_row(pick[0])
        ref.drop_row(pick[0])
        # Any column, any values: higher, lower, equal or -inf.
        j = data.draw(st.integers(0, s - 1))
        values = np.array(data.draw(st.lists(SCORES, min_size=m, max_size=m)))
        mine.set_column(j, values)
        ref.set_column(j, values)
        assert (mine.scores == ref.scores).all()


def test_pair_ranking_keeps_dropped_rows_exact():
    # Once every score is -inf, every pair ties and the cheapest wins, as in
    # the full scan: a dropped row must not keep its old cell.
    scores = np.array([[-np.inf, 1.0], [-np.inf, -np.inf]])
    nb = np.array([[1, 3], [2, 1]])
    mine = _PairRanking(scores.copy(), nb)
    ref = reference.FullMatrixRanking(scores.copy(), nb)
    for _ in range(2):
        pick = mine.pick()
        assert pick == ref.pick()
        mine.drop_row(pick[0])
        ref.drop_row(pick[0])
    assert pick == (0, 0, True)


@SETTINGS
@given(instances(), st.sampled_from([UNICAST, MULTICAST]))
def test_elva_matches_full_matrix_ranking(inst, mode):
    sol, rep = solve_elva(inst, mode=mode)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_PairRanking", reference.FullMatrixRanking)
        ref_sol, ref_rep = solve_elva(inst, mode=mode)
    assert list(sol.assoc) == list(ref_sol.assoc)
    assert _items(sol.alloc) == _items(ref_sol.alloc)
    assert _bits([rep.objective]) == _bits([ref_rep.objective])
    assert rep.tie_breaks == ref_rep.tie_breaks


@pytest.mark.parametrize("solver", ["sinr", "elva"])
def test_solvers_match_with_reference_cell_fill(solver, rng):
    # The cell kernel inside the solvers' final allocation, on instances
    # with many equal costs.
    solve = getattr(solvers, f"solve_{solver}")
    for _ in range(40):
        m, s, e = 8, 3, 4
        inst = Instance(
            n_users=m, n_cells=s, n_views=e,
            w=rng.integers(0, 2, (m, s, e)),
            rb_budget=rng.integers(5, 40, s),
            rb_basic=rng.integers(1, 4, (m, s)),
            rb_enhanced=rng.integers(1, 6, (m, s, e)),
        )
        sol, rep = solve(inst)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "solve_cell_subproblem", reference.solve_cell_subproblem)
            ref_sol, ref_rep = solve(inst)
        assert list(sol.assoc) == list(ref_sol.assoc)
        assert _items(sol.alloc) == _items(ref_sol.alloc)
        assert _bits([rep.objective]) == _bits([ref_rep.objective])
        assert rep.tie_breaks == ref_rep.tie_breaks

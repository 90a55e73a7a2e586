"""Branch-and-bound and greedy solvers, checked against the brute-force
oracle ``reference.solve_bruteforce`` on tiny instances."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiercast.experiments import build_experiment_instance, preset_config
from tiercast.problem import (
    MULTICAST,
    UNICAST,
    Instance,
    is_feasible,
    objective,
)
from tiercast.solvers import (
    _finalize,
    _one_cell,
    compute_nbar,
    solve_bb,
    solve_elva,
    solve_eva,
    solve_sinr,
)

import reference
from conftest import AFFORDABLE, every_user_affords_a_cell, fig1_instance, instances


@pytest.mark.parametrize("solve", [solve_bb, solve_elva, solve_eva, solve_sinr])
def test_solvers_refuse_an_unknown_mode(solve):
    with pytest.raises(ValueError, match="unknown mode 'multicats'"):
        solve(fig1_instance(), mode="multicats")


# User 0's view 1 costs 2**63 - 1, next to view 0, which it does not want:
# a cost at the int64 limit must neither wrap nor mix with that view.
_TOP = np.iinfo(np.int64).max
_TOP_COST_INSTANCE = Instance(
    n_users=2, n_cells=1, n_views=3, w=[[[0, 1, 1]], [[1, 1, 0]]], rb_budget=[6],
    rb_basic=[[1], [1]], rb_enhanced=[[[_TOP, _TOP, 3]], [[2, _TOP, _TOP]]],
    sharing=[[0, 1, 1], [1, 1, 0]],
)


@pytest.mark.parametrize("solve", [solve_sinr, solve_eva, solve_elva, solve_bb])
@settings(max_examples=100, deadline=None)
@given(instances(), st.sampled_from([UNICAST, MULTICAST]))
@example(inst=_TOP_COST_INSTANCE, mode=UNICAST)
@example(inst=_TOP_COST_INSTANCE, mode=MULTICAST)
def test_every_solver_allocates_as_finalize_at_its_association(solve, inst, mode):
    # The one allocation rule: every cell solved exactly at its residual
    # budget, so that solvers differ only in their associations. The report
    # takes ``_finalize``'s total, the solution's objective bit for bit.
    sol, rep = solve(inst, mode=mode)
    ref, _ = _finalize(inst, sol.assoc, mode)
    assert [(key, float(y).hex()) for key, y in sol.alloc.items()] == [
        (key, float(y).hex()) for key, y in ref.alloc.items()
    ]
    assert float(rep.objective).hex() == float(objective(inst, sol)).hex()


def test_compute_nbar_uniform_costs():
    inst = fig1_instance()
    inst.rb_basic[:] = 7
    assert compute_nbar(inst) == 7


@settings(max_examples=50, deadline=None)
@given(instances())
def test_compute_nbar_matches_scan_oracle(inst):
    scan = max(
        min(int(inst.rb_basic[i, j]) for j in range(inst.n_cells))
        for i in range(inst.n_users)
    )
    assert compute_nbar(inst) == scan


def _best_single_cell(inst):
    """One user's best one-cell value over every cell, at its residual."""
    return max(
        _one_cell(inst, j, [0], float(inst.rb_budget[j] - inst.rb_basic[0, j]), UNICAST)[1]
        for j in range(inst.n_cells)
    )


@settings(max_examples=30, deadline=None)
@given(instances(users=st.just(1)))
def test_bb_single_user_matches_exhaustive_scan(inst):
    _, report = solve_bb(inst)
    assert report.objective == pytest.approx(_best_single_cell(inst), abs=1e-9)


def test_bb_fig1_beats_sinr_with_tight_budgets():
    inst = fig1_instance(ample_budget=False)
    _, bb = solve_bb(inst)
    _, baseline = solve_sinr(inst)
    assert bb.objective > baseline.objective


@settings(max_examples=30, deadline=None)
@given(instances(slack=AFFORDABLE))
def test_bb_node_budget_flag_and_fallback(inst):
    sol, report = solve_bb(inst, node_budget=1)
    assert report.node_budget_hit
    assert is_feasible(inst, sol).feasible
    _, unbudgeted = solve_bb(inst)
    assert unbudgeted.node_budget_hit is False
    assert unbudgeted.objective >= report.objective - 1e-9


@settings(max_examples=30, deadline=None)
@given(instances())
def test_bb_report_counts_and_objective_exactness(inst):
    sol, report = solve_bb(inst)
    assert report.nodes_explored > 0
    assert report.objective == objective(inst, sol)


def test_sinr_fig1_association():
    inst = fig1_instance()
    sol, _ = solve_sinr(inst)
    assert list(sol.assoc) == [0, 0, 1]


def test_sinr_tie_breaks_to_lowest_cell():
    inst = fig1_instance()
    inst.rb_basic[2] = (3, 3)
    sol, _ = solve_sinr(inst)
    assert sol.assoc[2] == 0


# The heuristics' claims against bb hold where every pair is affordable: a
# user at a cell it cannot afford zeroes that cell on paper and may free
# another cell's broadcast (``_two_by_two_unaffordable``).
@settings(max_examples=40, deadline=None)
@given(instances(slack=AFFORDABLE))
def test_sinr_never_beats_bb(inst):
    _, bb = solve_bb(inst)
    _, baseline = solve_sinr(inst)
    assert baseline.objective <= bb.objective + 1e-9


@settings(max_examples=40, deadline=None)
@given(instances(slack=AFFORDABLE))
def test_eva_p_zero_matches_sinr_association(inst):
    eva_sol, report = solve_eva(inst, p=0.0)
    sinr_sol, _ = solve_sinr(inst)
    assert (eva_sol.assoc == sinr_sol.assoc).all()
    assert report.params["p"] == 0.0


def _fig1_cell_0():
    inst = fig1_instance(ample_budget=True)
    return Instance(
        n_users=3, n_cells=1, n_views=4,
        w=inst.w[:, :1, :], rb_budget=inst.rb_budget[:1],
        rb_basic=inst.rb_basic[:, :1], rb_enhanced=inst.rb_enhanced[:, :1, :],
    )


@settings(max_examples=30, deadline=None)
@given(instances(cells=st.just(1)))
@example(inst=_fig1_cell_0())
def test_eva_single_cell_within_subproblem_optimum(inst):
    # With one cell the association is forced, and EVA's value is the exact
    # per-cell optimum.
    _, report = solve_eva(inst)
    residual = float(inst.rb_budget[0] - inst.rb_basic[:, 0].max())
    _, best = _one_cell(inst, 0, list(range(inst.n_users)), residual, UNICAST)
    assert report.objective == best


@settings(max_examples=40, deadline=None)
@given(instances(slack=AFFORDABLE), st.sampled_from([0.5, 1.0, 3.0]))
def test_eva_never_beats_bb(inst, p):
    _, bb = solve_bb(inst)
    _, eva = solve_eva(inst, p=p)
    assert eva.objective <= bb.objective + 1e-9


def test_eva_avoids_unaffordable_cells_when_possible():
    # Cell 1 offers two rewards but its basic cost exceeds the budget; the
    # association guard must fall back to the affordable cell.
    inst = Instance(
        n_users=1, n_cells=2, n_views=2,
        w=np.array([[[1, 0], [1, 1]]], dtype=np.int8),
        rb_budget=np.array([50, 50]),
        rb_basic=np.array([[10, 60]]),
        rb_enhanced=np.array([[[5, 5], [5, 5]]]),
    )
    sol, _ = solve_eva(inst, p=1.0)
    assert sol.assoc[0] == 0
    assert is_feasible(inst, sol).feasible

    # At p=0 EVA ranks by basic cost alone, but among affordable cells only:
    # SINR takes the cheaper cell 0, which its budget cannot carry, and EVA
    # takes cell 1.
    inst = Instance(
        n_users=1, n_cells=2, n_views=1, w=np.ones((1, 2, 1), dtype=np.int8),
        rb_budget=np.array([4, 10]), rb_basic=np.array([[5, 6]]),
        rb_enhanced=np.full((1, 2, 1), 3),
    )
    sol, _ = solve_eva(inst, p=0.0)
    assert sol.assoc[0] == 1
    assert is_feasible(inst, sol).feasible
    baseline, _ = solve_sinr(inst)
    assert baseline.assoc[0] == 0
    assert not is_feasible(inst, baseline).feasible


def _three_views_at_10_or_two_at_1(budget=(50, 50)):
    """One user: cell 0 rewards 3 views at basic cost 10, cell 1 rewards 2
    at basic cost 1."""
    return Instance(
        n_users=1, n_cells=2, n_views=3, w=[[[1, 1, 1], [1, 1, 0]]],
        rb_budget=budget, rb_basic=[[10, 1]], rb_enhanced=np.full((1, 2, 3), 5),
    )


def test_eva_refuses_a_p_whose_rank_overflows():
    # 3^100 / 10 > 2^100 / 1, both within float64.
    sol, report = solve_eva(_three_views_at_10_or_two_at_1(), p=100)
    assert sol.assoc.tolist() == [0]
    assert report.tie_breaks == 0
    # 3^2000 and 2^2000 both overflow to +inf, which would tie the two
    # cells and send the user to the cheaper one.
    with pytest.raises(ValueError, match=r"eva_p = 2000 overflows a rank"):
        solve_eva(_three_views_at_10_or_two_at_1(), p=2000)
    # Only eligible cells are ranked: at a budget of 5 cell 0 is not, and
    # cell 1's rank 2^1000 is finite.
    sol, report = solve_eva(_three_views_at_10_or_two_at_1(budget=(5, 50)), p=1000)
    assert sol.assoc.tolist() == [1]
    assert report.tie_breaks == 0


@pytest.mark.parametrize("p", [float("nan"), -1.0])
def test_eva_refuses_a_p_below_zero_or_nan(p):
    # A NaN p used to rank every cell NaN: every user went to cell 0, at an
    # objective of 0.0 and no tie-breaks, and no error was raised.
    with pytest.raises(ValueError, match="eva_p must be at least 0"):
        solve_eva(_three_views_at_10_or_two_at_1(), p=p)


def _all_tie_instance():
    """Every cell's budget (2) sits below every enhanced cost (10) and equals
    the best-cell bound nbar, so ELVA's gains are all 0: every round ties at
    0 among the unassigned users' affordable cells (basic cost <= 2)."""
    m, s, e = 4, 3, 2
    return Instance(
        n_users=m, n_cells=s, n_views=e,
        w=np.ones((m, s, e), dtype=np.int8),
        rb_budget=np.full(s, 2),
        rb_basic=np.array([[5, 2, 2], [5, 5, 2], [2, 5, 2], [2, 5, 1]]),
        rb_enhanced=np.full((m, s, e), 10),
    )


def test_elva_breaks_ties_by_basic_cost_then_user_then_cell():
    inst = _all_tie_instance()
    sol, report = solve_elva(inst)
    # Round 1: the cost-1 pair (3, 2) beats six cost-2 pairs, among them
    # (3, 0) of the same user at a lower cell index. Round 2: (0, 1) beats
    # (0, 2) by cell and (1, 2), (2, 0), (2, 2) by user. Round 3: (1, 2)
    # beats (2, 0) by user although its cell index is higher. Round 4: user
    # 2 still ties (2, 0) with (2, 2), so all four rounds tie. Picking by
    # cell before user would place user 2 in round 2 and leave user 1's
    # single pair for round 4 (three ties).
    assert sol.assoc.tolist() == [1, 2, 0, 2]
    assert report.tie_breaks == 4
    assert report.objective == 0.0


def test_eva_breaks_ties_by_basic_cost_then_cell():
    m, s, e = 4, 3, 2
    counts = np.array([[2, 1, 0], [2, 2, 2], [1, 1, 1], [1, 0, 2]])
    w = (np.arange(e)[None, None, :] < counts[:, :, None]).astype(np.int8)
    inst = Instance(
        n_users=m, n_cells=s, n_views=e, w=w,
        rb_budget=np.full(s, 3),
        rb_basic=np.array([[2, 1, 1], [3, 3, 3], [5, 5, 4], [2, 1, 4]]),
        rb_enhanced=np.full((m, s, e), 10),
    )
    sol, report = solve_eva(inst, p=1.0)
    # User 0 ties cells 0 and 1 at score 1 and takes the cheaper cell 1.
    # User 1 ties all three cells at equal cost and takes cell 0. User 2 can
    # afford no cell, so ranks all three and takes cell 2 outright. User 3's
    # unaffordable cell 2 would tie cell 0 at 0.5; masked out, it is no tie.
    assert sol.assoc.tolist() == [1, 0, 2, 0]
    assert report.tie_breaks == 2
    # p=0 ranks by 1 / basic cost: users 0 and 1 tie at equal costs.
    sol0, report0 = solve_eva(inst, p=0.0)
    assert sol0.assoc.tolist() == [1, 0, 2, 1]
    assert report0.tie_breaks == 2


def test_elva_fig10_seed0_regression():
    # Fixed-seed anchor of the paper's large-scale preset (500 users, 100
    # cells, 20 views); any change to ELVA's scoring or tie order moves it.
    config = preset_config("fig10")
    inst, _ = build_experiment_instance(config, 0)
    _, report = solve_elva(inst)
    assert report.objective == 1815.986090622057
    assert report.tie_breaks == 399


def _one_basic_cost(**kwargs):
    """``instances`` whose every basic cost is one drawn value, and so is
    nbar: ELVA's layered budget N_j - nbar is then the residual of a cell
    at which the user is placed."""
    return st.integers(1, 3).flatmap(lambda nb: instances(basic=st.just(nb), **kwargs))


def _elva_bound(inst, optimum):
    """rho (1 - 1/e) times ``optimum``, where rho = min_j (N_j - nbar) / N_j,
    and at least 0."""
    nbar = compute_nbar(inst)
    rho = max(float(min((inst.rb_budget - nbar) / inst.rb_budget)), 0.0)
    return rho * (1 - 1 / np.e) * optimum


def test_elva_can_score_0_where_its_cell_costs_more_than_nbar():
    # This documents today's behaviour; it is not a bound. nbar is 1, so
    # both layered budgets are 2 - 1 = 1: ELVA scores cell 0 at gain 1 and
    # takes it, but cell 0's 2-RB broadcast leaves nothing. Every other
    # solver takes cell 1 and scores 0.5. ELVA scores a pair at N_j - nbar,
    # and this user's basic cost at cell 0 exceeds nbar, so both its
    # single-user claim and its bound fail here; the two properties below
    # state them where every basic cost equals nbar.
    inst = Instance(
        n_users=1, n_cells=2, n_views=1, w=[[[1], [1]]], rb_budget=[2, 2],
        rb_basic=[[2, 1]], rb_enhanced=[[[1], [2]]],
    )
    sol, report = solve_elva(inst)
    assert sol.assoc.tolist() == [0]
    assert report.objective == 0.0 and report.tie_breaks == 0
    for solve in (reference.solve_bruteforce, solve_bb, solve_eva, solve_sinr):
        sol, report = solve(inst)
        assert sol.assoc.tolist() == [1] and report.objective == 0.5
    # rho is 0.5: the bound is 0.5 * (1 - 1/e) * 0.5, about 0.158.
    assert _elva_bound(inst, 0.5) == 0.25 * (1 - 1 / np.e)


@settings(max_examples=40, deadline=None)
@given(_one_basic_cost(users=st.just(1)))
def test_elva_single_user_matches_bruteforce(inst):
    _, elva = solve_elva(inst)
    _, bf = reference.solve_bruteforce(inst)
    assert elva.objective == pytest.approx(bf.objective, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(instances(slack=AFFORDABLE))
def test_elva_never_beats_bb(inst):
    _, bb = solve_bb(inst)
    _, elva = solve_elva(inst)
    assert elva.objective <= bb.objective + 1e-9


def test_elva_reaches_an_affordable_reward_cell_not_an_unaffordable_one():
    # The user's reward sits on a cell that is not its cheapest but stays
    # affordable; eligibility must not exclude it.
    inst = Instance(
        n_users=1, n_cells=3, n_views=1,
        w=np.array([[[0], [0], [1]]], dtype=np.int8),
        rb_budget=np.array([29, 18, 28]),
        rb_basic=np.array([[5, 2, 4]]),
        rb_enhanced=np.array([[[7], [11], [7]]]),
    )
    sol, report = solve_elva(inst)
    assert sol.assoc[0] == 2
    assert report.objective == pytest.approx(1.0)
    # An unaffordable reward cell loses to an affordable empty cell.
    inst2 = Instance(
        n_users=1, n_cells=2, n_views=1,
        w=np.array([[[0], [1]]], dtype=np.int8),
        rb_budget=np.array([30, 30]),
        rb_basic=np.array([[5, 40]]),
        rb_enhanced=np.array([[[7], [7]]]),
    )
    sol2, _ = solve_elva(inst2)
    assert sol2.assoc[0] == 0


def test_elva_ranks_a_user_without_affordable_cells_by_gain():
    # User 1 can afford neither cell (20 > 10, 150 > 100), so it ranks both,
    # by gain alone: cell 1's layered budget 100 - nbar = 80 buys its view,
    # cell 0's is negative. Round 1 places it there; round 2 ties user 0 at
    # gain 0 on both cells, and the lower basic cost takes cell 0.
    inst = Instance(
        n_users=2, n_cells=2, n_views=1,
        w=np.array([[[1], [0]], [[0], [1]]], dtype=np.int8),
        rb_budget=np.array([10, 100]),
        rb_basic=np.array([[2, 3], [20, 150]]),
        rb_enhanced=np.full((2, 2, 1), 7),
    )
    sol, report = solve_elva(inst)
    assert sol.assoc.tolist() == [0, 1]
    assert report.tie_breaks == 1
    assert report.objective == 1.0  # cell 1 cannot carry user 1's broadcast
    assert not is_feasible(inst, sol).feasible
    assert report.params == {}


# Brute force scans S**M associations: at most 3**5 here.
@settings(max_examples=100, deadline=None)
@given(_one_basic_cost(users=st.integers(1, 5), cells=st.integers(1, 3)))
def test_elva_approximation_bound_on_tiny_instances(inst):
    _, bf = reference.solve_bruteforce(inst)
    _, elva = solve_elva(inst)
    assert elva.objective >= _elva_bound(inst, bf.objective) - 1e-9


@settings(max_examples=30, deadline=None)
@given(instances(slack=AFFORDABLE))
def test_all_solvers_feasible_and_deterministic(inst):
    for solve in (solve_bb, solve_elva, solve_eva, solve_sinr):
        s1, r1 = solve(inst)
        s2, r2 = solve(inst)
        assert is_feasible(inst, s1).feasible
        assert (s1.assoc == s2.assoc).all()
        assert s1.alloc == s2.alloc
        assert r1.objective == r2.objective


@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
@pytest.mark.parametrize(
    "solve", [solve_bb, reference.solve_bruteforce, solve_elva, solve_eva, solve_sinr]
)
def test_solvers_return_an_empty_feasible_result_with_no_users(solve, mode):
    # ELVA used to stop in compute_nbar on the max of an empty array.
    inst = Instance(
        n_users=0, n_cells=2, n_views=3, w=np.zeros((0, 2, 3)),
        rb_budget=np.array([5, 5]), rb_basic=np.zeros((0, 2)),
        rb_enhanced=np.zeros((0, 2, 3)),
    )
    sol, report = solve(inst, mode=mode)
    assert report.objective == 0.0
    assert sol.assoc.shape == (0,) and sol.alloc == {}
    assert is_feasible(inst, sol, mode).feasible


@settings(max_examples=30, deadline=None)
@given(instances(users=st.just(1)))
def test_bruteforce_single_user_scans_cells(inst):
    _, report = reference.solve_bruteforce(inst)
    assert report.objective == pytest.approx(_best_single_cell(inst))


def _two_by_two_unaffordable():
    """User 0 can afford only cell 0 (6 <= 7, 5 > 3), and so can user 1
    (3 <= 7, 5 > 3). Placing user 0 at cell 1 zeroes that cell and frees
    cell 0 of user 0's broadcast: 0.8 on paper, over budget in fact."""
    return Instance(
        n_users=2, n_cells=2, n_views=1,
        w=[[[0], [1]], [[1], [1]]],
        rb_budget=[7, 3],
        rb_basic=[[6, 5], [3, 5]],
        rb_enhanced=[[[1], [1]], [[5], [5]]],
    )


@pytest.mark.parametrize("solve", [reference.solve_bruteforce, solve_bb])
def test_exact_solvers_keep_users_at_affordable_cells(solve):
    inst = _two_by_two_unaffordable()
    sol, report = solve(inst)
    assert sol.assoc.tolist() == [0, 0]
    assert report.objective == pytest.approx(0.2)
    assert is_feasible(inst, sol).feasible


@settings(max_examples=30, deadline=None)
@given(instances(slack=AFFORDABLE, users=st.integers(1, 5), cells=st.integers(1, 3)))
def test_bruteforce_monotone_in_budget(inst):
    _, base = reference.solve_bruteforce(inst)
    _, more = reference.solve_bruteforce(
        dataclasses.replace(inst, rb_budget=inst.rb_budget + 1)
    )
    assert more.objective >= base.objective - 1e-9


@settings(max_examples=40, deadline=None)
@given(instances(sharing=True, slack=AFFORDABLE))
def test_greedy_solvers_multicast_mode_feasible_and_dominant(inst):
    for solve in (solve_elva, solve_eva, solve_sinr):
        mc_sol, mc_rep = solve(inst, mode=MULTICAST)
        assert is_feasible(inst, mc_sol, MULTICAST).feasible
    uc_sol, uc_rep = solve_sinr(inst, mode=UNICAST)
    mc_sol, mc_rep = solve_sinr(inst, mode=MULTICAST)
    # same association, exact per-cell solvers: multicast cannot lose
    assert mc_rep.objective >= uc_rep.objective - 1e-9


@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
@pytest.mark.parametrize("solve", [solve_elva, solve_eva])
@settings(max_examples=100, deadline=None)
@given(inst=instances(costs=st.integers(1, 40)).filter(every_user_affords_a_cell))
def test_greedy_result_is_feasible_when_every_user_can_afford_a_cell(solve, mode, inst):
    solution, _ = solve(inst, mode=mode)
    assert is_feasible(inst, solution, mode).feasible


def test_greedy_solvers_can_score_zero_where_the_optimum_is_positive():
    # This documents today's behaviour; it is not a bound. Only user 1 has a
    # rewardable view, at cell 1 for 18 RBs. nbar is 14, so ELVA's layered
    # budget at cell 1 is 14 - 14 = 0: every gain is 0 and ties go to the
    # lowest basic cost, which sends users 0 and 2 to cell 1 (EVA and SINR
    # send them there too). Their broadcast of 14 spends cell 1's budget.
    # The optimum serves them at cell 0 and leaves user 1 11 of the 18 RBs.
    w = np.zeros((4, 2, 1), dtype=np.int8)
    w[1, 1, 0] = 1
    inst = Instance(
        n_users=4, n_cells=2, n_views=1, w=w, rb_budget=[76, 14],
        rb_basic=[[39, 14], [27, 3], [39, 14], [2, 16]],
        rb_enhanced=np.full((4, 2, 1), 18),
    )
    for solve in (solve_elva, solve_eva, solve_sinr):
        solution, report = solve(inst)
        assert list(solution.assoc) == [1, 1, 1, 0]
        assert report.objective == 0.0
    solution, report = reference.solve_bruteforce(inst)
    assert list(solution.assoc)[:3] == [0, 1, 0]
    assert report.objective == 11 / 18

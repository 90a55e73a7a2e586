"""Objective, RB accounting, feasibility checking, and discrete rounding."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiercast.problem import (
    MULTICAST,
    UNICAST,
    Instance,
    Solution,
    is_feasible,
    objective,
    per_user_rewards,
    rb_usage,
)
from tiercast.solvers import solve_elva, solve_sinr

from conftest import fig1_instance, instances


def _full_alloc_solution(inst, assoc):
    sol = Solution(assoc=np.asarray(assoc, dtype=np.int64))
    for i in range(inst.n_users):
        for k in range(inst.n_views):
            if inst.w[i, sol.assoc[i], k]:
                sol.alloc[(i, k)] = 1.0
    return sol


def test_objective_zero_alloc():
    inst = fig1_instance()
    sol = Solution(assoc=np.array([0, 0, 1]))
    assert objective(inst, sol) == 0.0


def test_objective_counts_full_delivery():
    inst = fig1_instance()
    sol = _full_alloc_solution(inst, [0, 0, 1])
    # demand/cache intersections: 2 + 1 + 1
    assert objective(inst, sol) == 4.0


def test_objective_fig1_sinr_association_caps_user1():
    inst = fig1_instance(ample_budget=True)
    sol, _ = solve_sinr(inst)
    assert list(sol.assoc) == [0, 0, 1]
    assert per_user_rewards(inst, sol)[1] == pytest.approx(1.0)


def _associations(inst):
    cell = st.integers(0, inst.n_cells - 1)
    return st.lists(cell, min_size=inst.n_users, max_size=inst.n_users).map(np.array)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_objective_linear_in_alloc(data):
    inst = data.draw(instances())
    sol = _full_alloc_solution(inst, data.draw(_associations(inst)))
    base = objective(inst, sol)
    scaled = Solution(assoc=sol.assoc.copy(), alloc={k: 0.5 * y for k, y in sol.alloc.items()})
    assert objective(inst, scaled) == pytest.approx(0.5 * base)


def test_rb_usage_empty_cell_is_zero():
    inst = fig1_instance()
    sol = Solution(assoc=np.array([1, 1, 1]))
    usage = rb_usage(inst, sol)
    assert usage[0] == 0.0
    assert usage[1] == 4  # broadcast only: max basic of users on cell 1


def test_rb_usage_unicast_sums_basic_max_and_enhanced():
    inst = fig1_instance()
    sol = Solution(assoc=np.array([0, 0, 1]), alloc={(0, 0): 1.0, (0, 2): 0.5})
    usage = rb_usage(inst, sol, UNICAST)
    assert usage[0] == pytest.approx(2 + 10 + 5)
    assert usage[1] == pytest.approx(2)


@pytest.mark.parametrize("assoc", [[0, 0, -1], [0, 2, 1], [0, 1]])
def test_rb_usage_rejects_bad_association(assoc):
    # A negative index must not wrap around to the last cell.
    inst = fig1_instance()
    with pytest.raises(ValueError):
        rb_usage(inst, Solution(assoc=np.array(assoc)))


def test_rb_usage_rejects_an_unknown_mode():
    inst = fig1_instance()
    with pytest.raises(ValueError, match="unknown mode 'broadcast'"):
        rb_usage(inst, Solution(assoc=np.array([0, 0, 1])), "broadcast")


@pytest.mark.parametrize(
    "assoc", [[0, 3], [0, 3, 1], [0, 0, 1]], ids=["short", "out-of-range", "in-range"]
)
def test_is_feasible_rejects_an_unknown_mode_before_any_other_check(assoc):
    # A bad association used to come back as an infeasible report without
    # the mode ever being read.
    inst = fig1_instance()
    with pytest.raises(ValueError, match="unknown mode 'broadcast'"):
        is_feasible(inst, Solution(assoc=np.array(assoc)), "broadcast")


@pytest.mark.parametrize(
    "sharing, message",
    [
        (np.ones((3, 3)), "sharing shape"),
        (np.ones((4, 3)), "sharing shape"),
        (np.full((3, 4), 2), "sharing entries must be 0/1"),
        (-np.ones((3, 4)), "sharing entries must be 0/1"),
    ],
    ids=["too-few-views", "too-many-users", "two", "minus-one"],
)
def test_instance_rejects_bad_sharing_mask(sharing, message):
    inst = fig1_instance()
    with pytest.raises(ValueError, match=message):
        Instance(
            n_users=inst.n_users, n_cells=inst.n_cells, n_views=inst.n_views,
            w=inst.w, rb_budget=inst.rb_budget, rb_basic=inst.rb_basic,
            rb_enhanced=inst.rb_enhanced, sharing=sharing,
        )


@pytest.mark.parametrize(
    "field, value",
    [("w", 257), ("sharing", 256), ("rb_basic", 1.7), ("rb_budget", 2.5)],
    ids=["w-257", "sharing-256", "rb_basic-1.7", "rb_budget-2.5"],
)
def test_instance_rejects_values_the_cast_would_change(field, value):
    # Each value casts to a valid one (1, 0, 1 and 2), so it must be refused
    # before the cast.
    inst = fig1_instance()
    arrays = {
        name: getattr(inst, name)
        for name in ("w", "rb_budget", "rb_basic", "rb_enhanced", "sharing")
    }
    arrays[field] = arrays[field].astype(type(value))
    arrays[field].flat[0] = value
    with pytest.raises(ValueError, match=f"{field} entries must be"):
        Instance(n_users=inst.n_users, n_cells=inst.n_cells, n_views=inst.n_views, **arrays)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("w", 2, "w entries must be 0/1"),
        ("w", -1, "w entries must be 0/1"),
        ("rb_basic", 0, "RB costs must be >= 1"),
        ("rb_enhanced", 0, "RB costs must be >= 1"),
    ],
    ids=["w-two", "w-minus-one", "rb_basic-zero", "rb_enhanced-zero"],
)
def test_instance_rejects_out_of_range_entries(field, value, message):
    inst = fig1_instance()
    arrays = {
        name: getattr(inst, name).copy()
        for name in ("w", "rb_budget", "rb_basic", "rb_enhanced")
    }
    arrays[field].flat[0] = value
    with pytest.raises(ValueError, match=message):
        Instance(n_users=inst.n_users, n_cells=inst.n_cells, n_views=inst.n_views, **arrays)


def test_instance_rejects_entries_beyond_int64():
    # A Python int past int64 makes an object array, whose cast overflows.
    inst = fig1_instance()
    with pytest.raises(ValueError, match="rb_budget entries must be int64"):
        Instance(
            n_users=inst.n_users, n_cells=inst.n_cells, n_views=inst.n_views,
            w=inst.w, rb_budget=[10**20] * inst.n_cells, rb_basic=inst.rb_basic,
            rb_enhanced=inst.rb_enhanced,
        )


def test_instance_accepts_no_users():
    # Empty w and sharing hold no entry outside 0/1; ELVA then places nobody.
    inst = Instance(
        n_users=0, n_cells=2, n_views=3, w=np.zeros((0, 2, 3)),
        rb_budget=[5, 5], rb_basic=np.zeros((0, 2)),
        rb_enhanced=np.zeros((0, 2, 3)),
    )
    assert inst.w.dtype == inst.sharing.dtype == np.int8
    assert inst.sharing.shape == (0, 3)
    solution, report = solve_elva(inst)
    assert solution.assoc.shape == (0,)
    assert solution.alloc == {}
    assert report.objective == 0.0 and report.tie_breaks == 0


def test_instance_refuses_no_cells():
    # Every solver failed on such an instance; brute force with a traceback.
    with pytest.raises(ValueError, match="n_cells must be >= 1, got 0"):
        Instance(
            n_users=2, n_cells=0, n_views=2, w=np.zeros((2, 0, 2)),
            rb_budget=np.zeros(0), rb_basic=np.zeros((2, 0)),
            rb_enhanced=np.zeros((2, 0, 2)),
        )


@settings(max_examples=100, deadline=None)
@given(
    n_users=st.integers(0, 6),
    n_cells=st.integers(1, 4),
    n_views=st.integers(1, 25),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_users=3, n_cells=2, n_views=1, density=0.3, seed=0)
@example(n_users=3, n_cells=2, n_views=4, density=0.0, seed=0)
def test_reward_counts_is_the_int64_view_sum(n_users, n_cells, n_views, density, seed):
    rng = np.random.default_rng(seed)
    w = (rng.uniform(size=(n_users, n_cells, n_views)) < density).astype(np.int8)
    inst = Instance(
        n_users=n_users, n_cells=n_cells, n_views=n_views, w=w,
        rb_budget=np.ones(n_cells), rb_basic=np.ones((n_users, n_cells)),
        rb_enhanced=np.ones((n_users, n_cells, n_views)),
    )
    counts = inst.reward_counts()
    assert counts.dtype == np.int64
    assert np.array_equal(counts, w.sum(axis=2, dtype=np.int64))


def test_rb_usage_multicast_max_versus_sum():
    inst = fig1_instance()
    inst.sharing[:, 2] = 1
    sol = Solution(
        assoc=np.array([0, 0, 0]),
        alloc={(0, 2): 0.8, (2, 2): 0.8},
    )
    uni = rb_usage(inst, sol, UNICAST)
    multi = rb_usage(inst, sol, MULTICAST)
    assert uni[0] == pytest.approx(4 + 8 + 8)
    assert multi[0] == pytest.approx(4 + 8)  # one shared copy


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rb_usage_multicast_never_exceeds_unicast(data):
    # Random shares in [0, 1] of some rewarded views on shared instances.
    inst = data.draw(instances(sharing=True))
    assoc = data.draw(_associations(inst))
    keys = [(i, k) for i in range(inst.n_users) for k in np.flatnonzero(inst.w[i, assoc[i]])]
    shares = st.lists(st.one_of(st.none(), st.floats(0.0, 1.0)), min_size=len(keys),
                      max_size=len(keys))
    alloc = {key: y for key, y in zip(keys, data.draw(shares)) if y is not None}
    sol = Solution(assoc=assoc, alloc=alloc)
    uni = rb_usage(inst, sol, UNICAST)
    multi = rb_usage(inst, sol, MULTICAST)
    assert (multi <= uni + 1e-9).all()


def test_is_feasible_empty_solution():
    inst = fig1_instance()
    report = is_feasible(inst, Solution(assoc=np.array([0, 1, 0])))
    assert report.feasible and not report.violations
    assert str(report) == "feasible"


@pytest.mark.parametrize("assoc", [[0, 1], [0, 0, 1, 1], [[0, 0, 1]]])
def test_is_feasible_flags_an_association_of_the_wrong_shape(assoc):
    report = is_feasible(fig1_instance(), Solution(assoc=np.array(assoc)))
    assert not report.feasible and report.usage is None
    assert [v.constraint for v in report.violations] == ["association"]


def test_is_feasible_flags_mask_violation():
    inst = fig1_instance()
    sol = Solution(assoc=np.array([0, 0, 1]), alloc={(0, 1): 1.0})  # w=0 there
    report = is_feasible(inst, sol)
    assert not report.feasible
    assert any(v.constraint == "alloc-mask" for v in report.violations)


def test_is_feasible_flags_single_budget_violation():
    inst = fig1_instance(ample_budget=False)  # budget 24 per cell
    sol = Solution(
        assoc=np.array([0, 0, 1]),
        alloc={(0, 0): 1.0, (0, 2): 1.0, (1, 0): 0.31},  # 2 + 23.1 RBs on cell 0
    )
    report = is_feasible(inst, sol)
    budget_violations = [v for v in report.violations if v.constraint == "budget"]
    assert not report.feasible
    assert len(budget_violations) == 1
    assert budget_violations[0].where == (0,)


def test_is_feasible_flags_bounds():
    inst = fig1_instance()
    sol = Solution(assoc=np.array([0, 0, 1]), alloc={(0, 0): 1.5})
    report = is_feasible(inst, sol)
    assert any(v.constraint == "alloc-bounds" for v in report.violations)


def test_is_feasible_flags_nan_share():
    # NaN fails neither ``y < lo`` nor ``y > hi``; the check must not pass it.
    inst = fig1_instance()
    sol = Solution(assoc=np.array([0, 0, 1]), alloc={(0, 0): float("nan")})
    report = is_feasible(inst, sol)
    assert not report.feasible
    assert [v.constraint for v in report.violations] == ["alloc-bounds"]
    assert report.violations[0].where == (0, 0)


@pytest.mark.parametrize("y", [float("inf"), float("-inf")])
def test_is_feasible_flags_infinite_share(y):
    inst = fig1_instance()
    sol = Solution(assoc=np.array([0, 0, 1]), alloc={(0, 0): y})
    report = is_feasible(inst, sol)
    assert not report.feasible
    assert report.violations[0].constraint == "alloc-bounds"

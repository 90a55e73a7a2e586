"""Shared instance builders for the test suite.

``instances`` is the one source of random ``Instance``s: every randomized
test draws from it, or from the strategies below that build on it. Its
arguments are Hypothesis strategies:

- ``costs`` draws each enhanced-view cost (1-5: few distinct costs, so that
  ties are common) and ``basic`` each basic cost (1-3);
- ``slack`` draws each cell's budget as its largest basic cost plus
  ``slack`` - 4, and at least 1. The default, 0-12, lets budgets fall below
  some basic costs; ``AFFORDABLE`` puts every budget at or above every basic
  cost of its cell, for a claim that needs every pair affordable;
- ``sharing`` is None for a sharing mask or none, drawn, and True or False
  for one or none;
- the size: ``users`` (1-6), ``cells`` (1-4) and ``views`` (1-4).

A narrow region is drawn directly, ``instances(users=st.just(1))`` rather
than ``assume(inst.n_users == 1)``, so that Hypothesis does not filter most
examples away. ``tied_instances`` draws long runs of tied ELVA rounds;
``cell_cases`` and ``multicast_cell_cases`` draw one cell's subproblem:
an instance, a cell, its users and a budget.
"""

import dataclasses

import numpy as np
from hypothesis import strategies as st

from tiercast.problem import Instance

# A slack of 4 or more puts a cell's budget at or above its basic costs.
AFFORDABLE = st.integers(4, 16)


def _ints(draw, values, *shape):
    n = int(np.prod(shape))
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.int64).reshape(shape)


@st.composite
def instances(
    draw, sharing=None, costs=st.integers(1, 5), basic=st.integers(1, 3),
    slack=st.integers(0, 12), users=st.integers(1, 6), cells=st.integers(1, 4),
    views=st.integers(1, 4),
):
    m, s, e = draw(users), draw(cells), draw(views)
    w = _ints(draw, st.integers(0, 1), m, s, e)
    nb = _ints(draw, basic, m, s)
    ne = _ints(draw, costs, m, s, e)
    budget = np.maximum(1, nb.max(axis=0) + _ints(draw, slack, s) - 4)
    mask = None
    if draw(st.booleans()) if sharing is None else sharing:
        mask = _ints(draw, st.integers(0, 1), m, e)
    return Instance(
        n_users=m, n_cells=s, n_views=e, w=w, rb_budget=budget, rb_basic=nb,
        rb_enhanced=ne, sharing=mask,
    )


def every_user_affords_a_cell(inst):
    return bool((inst.rb_basic <= inst.rb_budget[None, :]).any(axis=1).all())


@st.composite
def tied_instances(draw):
    """Up to 20 users on 2-4 cells, each pair's views at one cost (as on
    every preset) of 1 or 2, over budgets that leave 0-8 RBs a cell: most
    of ELVA's rounds tie, in long runs at one maximum."""
    m = draw(st.integers(1, 20))
    s = draw(st.integers(2, 4))
    e = draw(st.integers(1, 4))
    nb = _ints(draw, st.integers(1, 2), m, s)
    pair_cost = _ints(draw, st.integers(1, 2), m, s, 1)
    nbar = nb.min(axis=1).max()
    return Instance(
        n_users=m, n_cells=s, n_views=e, w=_ints(draw, st.integers(0, 1), m, s, e),
        rb_budget=nbar + _ints(draw, st.integers(0, 8), s), rb_basic=nb,
        rb_enhanced=np.repeat(pair_cost, e, axis=2),
        sharing=_ints(draw, st.integers(0, 1), m, e),
    )


@st.composite
def cell_cases(draw):
    """One cell without sharing groups, up to 8 of its users in any order,
    and a budget at, just off or between the prefix sums of their sorted
    rewardable costs, or an arbitrary fraction. A cost of 49, whose
    49 * (1 / 49) rounds below 1, tells a share of take / cost from one of
    take * (1 / cost)."""
    inst = draw(instances(sharing=False, costs=st.sampled_from([1, 2, 3, 5, 49])))
    cell = draw(st.integers(0, inst.n_cells - 1))
    users = draw(st.lists(st.integers(0, inst.n_users - 1), unique=True, max_size=8))
    costs = sorted(
        int(inst.rb_enhanced[i, cell, k])
        for i in users
        for k in np.flatnonzero(inst.w[i, cell])
    )
    edge = float(sum(costs[: draw(st.integers(0, len(costs)))]))
    budget = draw(
        st.one_of(
            st.sampled_from([edge, edge + 1e-12, edge - 1e-12, edge + 0.1, edge + 1 / 3]),
            st.floats(-1.0, 60.0),
            st.integers(-1, 60).map(float),
        )
    )
    return inst, cell, users, budget


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
        mask = _ints(draw, st.integers(0, 1), m, e)
    else:
        mask = np.full((m, e), int(kind == "all"))
    inst = dataclasses.replace(
        inst, rb_enhanced=_ints(draw, st.sampled_from([1, 2, 3, 5, 49]), m, s, e),
        sharing=mask,
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


def fig1_instance(ample_budget=True):
    """The two-cell, three-user, four-view illustration instance.

    Cell 0 caches views {0, 2}; cell 1 caches {1, 2, 3}. User 0 wants
    {0, 2}, user 1 wants {0, 3}, user 2 wants {2}. Users 0 and 1 are nearest
    cell 0, user 2 nearest cell 1 (encoded via basic RB costs). Every
    enhanced view costs 10 RBs; with ``ample_budget`` each cell can serve
    everything, otherwise exactly two full views beyond the broadcast.
    """
    m, s, e = 3, 2, 4
    demands = [{0, 2}, {0, 3}, {2}]
    caches = [{0, 2}, {1, 2, 3}]
    w = np.zeros((m, s, e), dtype=np.int8)
    for i, wanted in enumerate(demands):
        for j, cache in enumerate(caches):
            for k in wanted & cache:
                w[i, j, k] = 1
    nb = np.array([[2, 4], [2, 4], [4, 2]], dtype=np.int64)
    ne = np.full((m, s, e), 10, dtype=np.int64)
    budget = np.full(s, 1000 if ample_budget else 24, dtype=np.int64)
    return Instance(
        n_users=m, n_cells=s, n_views=e, w=w, rb_budget=budget,
        rb_basic=nb, rb_enhanced=ne,
    )

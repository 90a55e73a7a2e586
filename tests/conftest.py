"""Shared instance builders for the test suite."""

import numpy as np
import pytest

from tiercast.problem import Instance


def random_tiny_instance(rng, with_sharing=False, sharing_prob=0.7):
    """Random instance with M <= 5, S <= 3, E <= 3 and budgets that fit the
    broadcast everywhere plus one to three full enhanced views per cell."""
    m = int(rng.integers(1, 6))
    s = int(rng.integers(1, 4))
    e = int(rng.integers(1, 4))
    w = rng.integers(0, 2, size=(m, s, e)).astype(np.int8)
    nb = rng.integers(1, 8, size=(m, s))
    ne = rng.integers(2, 12, size=(m, s, e))
    budget = nb.max(axis=0) + rng.integers(1, 4, size=s) * int(ne.mean())
    sharing = None
    if with_sharing:
        sharing = (rng.uniform(size=(m, e)) < sharing_prob).astype(np.int8)
    return Instance(
        n_users=m,
        n_cells=s,
        n_views=e,
        w=w,
        rb_budget=budget,
        rb_basic=nb,
        rb_enhanced=ne,
        sharing=sharing,
    )


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


@pytest.fixture
def rng():
    return np.random.default_rng(823)

import os

# one BLAS thread, as the benchmark (perfbench/run.py) pins it before numpy
# is first imported: some degenerate barrier paths depend on the thread
# count, and the suite should see the answers the benchmark sees
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from frictiondual.tree import EventTree, MarketSpec


@pytest.fixture
def martingale_binomial():
    """S0=100 moving to 120/80 with p=1/2: a P-martingale, lambda=0.01."""
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    return MarketSpec(tree=tree, ask_price=[100.0, 120.0, 80.0], lam=0.01,
                      endowment=[0.0, 0.0])


@pytest.fixture
def drift_binomial():
    """S0=100 moving to 130/90 with p=1/2 (upward drift), lambda=0.01."""
    tree = EventTree(parent=[-1, 0, 0], time=[0, 1, 1], cond_prob=[1.0, 0.5, 0.5])
    return MarketSpec(tree=tree, ask_price=[100.0, 130.0, 90.0], lam=0.01,
                      endowment=[0.0, 0.0])


@pytest.fixture
def two_period_market():
    parent = [-1, 0, 0, 0, 1, 1, 2, 2, 3, 3]
    time = [0, 1, 1, 1, 2, 2, 2, 2, 2, 2]
    cond_prob = [1.0, 0.3, 0.4, 0.3, 0.5, 0.5, 0.6, 0.4, 0.5, 0.5]
    price = np.array([100, 115, 100, 85, 130, 105, 110, 92, 95, 75], float)
    tree = EventTree(parent=parent, time=time, cond_prob=cond_prob)
    return MarketSpec(tree=tree, ask_price=price, lam=0.02,
                      endowment=[2.0, -1.0, 0.5, 0.0, -2.0, 1.0])

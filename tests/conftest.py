import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment


def _replicated_assignment_cost(C, ka, kb):
    """Optimal transport cost between weights ka/K and kb/K (integer counts,
    equal totals K): replicate atom i ka[i] times and atom j kb[j] times,
    then solve the K x K assignment problem. By Birkhoff's theorem its
    optimum divided by K is the transportation LP optimum; the solve
    shares no code with the LP solver."""
    K = int(np.sum(ka))
    assert K == int(np.sum(kb))
    big = C[np.repeat(np.arange(C.shape[0]), ka)][:, np.repeat(
        np.arange(C.shape[1]), kb)]
    rows, cols = linear_sum_assignment(big)
    return float(big[rows, cols].sum() / K)


@pytest.fixture
def assignment_oracle():
    return _replicated_assignment_cost

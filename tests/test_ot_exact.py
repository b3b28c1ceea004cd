import numpy as np
import pytest
from scipy.optimize import linprog

from empwass import _kernels
from empwass.measures import DiscreteMeasure
from empwass.metric_core import FiniteMetricSpace
from empwass.ot_exact import (MAX_MCF_ATOMS, OTError, wpp_1d, wpp_1d_arrays,
                              wpp_1d_vs_quantile, wpp_mcf, wpp_to_point)


def _measure(xs, ws):
    xs = np.asarray(xs, float)[:, None]
    space = FiniteMetricSpace.from_points(xs)
    return DiscreteMeasure(space, np.arange(len(ws)), np.asarray(ws, float))


def _pair(xa, wa, xb, wb):
    """Two measures on one joint space (atoms of a first, then of b)."""
    pts = np.concatenate([xa, xb])[:, None]
    space = FiniteMetricSpace.from_points(pts)
    mu = DiscreteMeasure(space, np.arange(len(xa)), wa)
    nu = DiscreteMeasure(space, len(xa) + np.arange(len(xb)), wb)
    return mu, nu


def _lp_oracle(xa, wa, xb, wb, p):
    """Independent LP solution of the transport problem."""
    C = np.abs(np.subtract.outer(xa, xb)) ** p
    m, n = C.shape
    A_eq = []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n:(i + 1) * n] = 1.0
        A_eq.append(row)
    for j in range(n):
        row = np.zeros(m * n)
        row[j::n] = 1.0
        A_eq.append(row)
    res = linprog(C.ravel(), A_eq=np.array(A_eq),
                  b_eq=np.concatenate([wa, wb]), method="highs")
    assert res.status == 0
    return res.fun


def test_wpp_1d_matches_lp_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m, n = rng.integers(1, 8, size=2)
        xa, xb = np.sort(rng.normal(size=m)), np.sort(rng.normal(size=n))
        wa, wb = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        for p in (1.0, 2.0, 3.0):
            want = _lp_oracle(xa, wa, xb, wb, p)
            got = wpp_1d_arrays(xa, wa, xb, wb, p)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_wpp_mcf_matches_lp_oracle_general_position(assignment_oracle):
    rng = np.random.default_rng(9)
    rng_counts = np.random.default_rng(10)
    total = 12
    for _ in range(15):
        m, n = rng.integers(2, 7, size=2)
        pa, pb = rng.normal(size=(m, 2)), rng.normal(size=(n, 2))
        wa, wb = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        pts = np.vstack([pa, pb])
        space = FiniteMetricSpace.from_points(pts)
        mu = DiscreteMeasure(space, np.arange(m), wa)
        nu = DiscreteMeasure(space, m + np.arange(n), wb)
        # rational weights k/total for the replication/assignment oracle
        ka = 1 + rng_counts.multinomial(total - m, np.full(m, 1.0 / m))
        kb = 1 + rng_counts.multinomial(total - n, np.full(n, 1.0 / n))
        mu_k = DiscreteMeasure(space, np.arange(m), ka / total)
        nu_k = DiscreteMeasure(space, m + np.arange(n), kb / total)
        for p in (1.0, 2.0):
            C = np.linalg.norm(pa[:, None] - pb[None, :], axis=2).ravel() ** p
            Aeq, beq = [], []
            for i in range(m):
                row = np.zeros(m * n)
                row[i * n:(i + 1) * n] = 1.0
                Aeq.append(row)
            for j in range(n):
                row = np.zeros(m * n)
                row[j::n] = 1.0
                Aeq.append(row)
            res = linprog(C, A_eq=np.array(Aeq),
                          b_eq=np.concatenate([wa, wb]), method="highs")
            got, _plan = wpp_mcf(mu, nu, p)
            assert got.value == pytest.approx(res.fun, rel=1e-8, abs=1e-12)
            want = assignment_oracle(C.reshape(m, n), ka, kb)
            got_k, _plan = wpp_mcf(mu_k, nu_k, p)
            assert got_k.value == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_wpp_mcf_reports_solver_failure(monkeypatch):
    rng = np.random.default_rng(6)
    xa, xb = np.sort(rng.normal(size=4)), np.sort(rng.normal(size=3))
    mu, nu = _pair(xa, rng.dirichlet(np.ones(4)), xb, rng.dirichlet(np.ones(3)))
    monkeypatch.setattr(_kernels, "transport_simplex",
                        lambda a, b, C, tol, max_iter: (np.zeros(C.shape), 1))
    with pytest.raises(OTError, match="HiGHS"):
        wpp_mcf(mu, nu, 2.0)


def test_wpp_mcf_refuses_oversize_before_costs(monkeypatch):
    half = MAX_MCF_ATOMS // 2 + 1
    space = FiniteMetricSpace.from_points(np.zeros((2 * half, 1)))
    mu = DiscreteMeasure(space, np.arange(half), np.full(half, 1.0 / half))
    nu = DiscreteMeasure(space, half + np.arange(half),
                         np.full(half, 1.0 / half))

    def no_costs(*args):
        raise AssertionError("cost matrix built for an oversize instance")

    monkeypatch.setattr(space, "distance_block", no_costs)
    with pytest.raises(OTError, match="combined atoms"):
        wpp_mcf(mu, nu, 1.0)


def test_wpp_symmetry_and_identity():
    rng = np.random.default_rng(1)
    xa, xb = np.sort(rng.normal(size=5)), np.sort(rng.normal(size=4))
    wa, wb = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(4))
    mu, nu = _pair(xa, wa, xb, wb)
    ab = wpp_mcf(mu, nu, 2.0)[0].value
    ba = wpp_mcf(nu, mu, 2.0)[0].value
    assert ab == pytest.approx(ba, rel=1e-10)
    assert wpp_mcf(mu, mu, 2.0)[0].value == 0.0


def test_wpp_triangle_inequality_after_root():
    rng = np.random.default_rng(2)
    for p in (1.0, 2.0):
        xs = rng.normal(size=9)
        pts = xs[:, None]
        space = FiniteMetricSpace.from_points(pts)
        mu = DiscreteMeasure(space, [0, 1, 2], rng.dirichlet(np.ones(3)))
        nu = DiscreteMeasure(space, [3, 4, 5], rng.dirichlet(np.ones(3)))
        rho = DiscreteMeasure(space, [6, 7, 8], rng.dirichlet(np.ones(3)))
        w = lambda a, b: wpp_mcf(a, b, p)[0].value ** (1 / p)
        assert w(mu, rho) <= w(mu, nu) + w(nu, rho) + 1e-10


def test_wpp_scale_equivariance():
    rng = np.random.default_rng(4)
    xa, xb = rng.normal(size=4), rng.normal(size=4)
    wa = wb = np.full(4, 0.25)
    mu, nu = _pair(np.sort(xa), wa, np.sort(xb), wb)
    base = wpp_mcf(mu, nu, 2.0)[0].value
    mu3, nu3 = _pair(np.sort(3 * xa), wa, np.sort(3 * xb), wb)
    assert wpp_mcf(mu3, nu3, 2.0)[0].value == pytest.approx(9 * base, rel=1e-10)


def test_uniform_equal_size_fast_path_matches_simplex():
    rng = np.random.default_rng(8)
    pa, pb = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
    pts = np.vstack([pa, pb])
    space = FiniteMetricSpace.from_points(pts)
    mu = DiscreteMeasure(space, np.arange(20), np.full(20, 0.05))
    # weights perturbed to defeat the assignment fast path
    w = np.full(20, 0.05)
    w[0] += 1e-9
    w[1] -= 1e-9
    nu_uniform = DiscreteMeasure(space, 20 + np.arange(20), np.full(20, 0.05))
    nu_perturbed = DiscreteMeasure(space, 20 + np.arange(20), w)
    fast, _ = wpp_mcf(mu, nu_uniform, 2.0)
    slow, _ = wpp_mcf(mu, nu_perturbed, 2.0)
    assert fast.value == pytest.approx(slow.value, rel=1e-6)


def test_transport_plan_marginals_validate():
    rng = np.random.default_rng(3)
    xa, xb = np.sort(rng.normal(size=6)), np.sort(rng.normal(size=5))
    wa, wb = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(5))
    mu, nu = _pair(xa, wa, xb, wb)
    res, plan = wpp_mcf(mu, nu, 2.0)
    assert plan is not None
    plan.validate(mu, nu, 2.0)


def test_wpp_1d_vs_quantile_uniform_reference():
    # W_1(empirical {1/4, 3/4} vs uniform[0,1]) has closed-form value 1/8
    # via |F_n(x) - x| piecewise integration (hand derivation)
    from empwass.measures import sampler_from_string
    s = sampler_from_string("uniform-cube:1")
    got = wpp_1d_vs_quantile(np.array([0.25, 0.75]), s.quantile, 1.0,
                             grid=2048, quantile_antideriv=s.quantile_antideriv)
    assert got.value == pytest.approx(0.125, rel=1e-9)
    # p = 2: integral of (Q(u) - X_(i))^2 du; oracle by dense numeric quadrature
    u = (np.arange(2_000_000) + 0.5) / 2_000_000
    q = s.quantile(u)
    x = np.where(u < 0.5, 0.25, 0.75)
    want = np.mean((q - x) ** 2)
    got2 = wpp_1d_vs_quantile(np.array([0.25, 0.75]), s.quantile, 2.0,
                              grid=2048)
    assert got2.value == pytest.approx(want, rel=1e-5)


def test_wpp_to_point():
    mu = _measure([0.0, 2.0], [0.5, 0.5])
    assert wpp_to_point(mu, 0, 2.0) == pytest.approx(2.0)


def test_wpp_mcf_rejects_bad_inputs():
    mu = _measure([0.0, 1.0], [0.5, 0.5])
    nu = _measure([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(OTError):
        wpp_mcf(mu, nu, 2.0)  # distinct spaces
    with pytest.raises(OTError):
        wpp_1d(mu, nu, 0.5)  # p < 1


def test_wpp_1d_requires_sorted_or_handles_weights():
    # zero-weight atoms must not change the value
    a = _measure([0.0, 0.5, 1.0], [0.5, 0.0, 0.5])
    b = _measure([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    got = wpp_1d_arrays(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.0, 0.5]),
                        np.array([0.5]), np.array([1.0]), 2.0)
    assert got == pytest.approx(0.25)

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from empwass import _kernels, ot_exact
from empwass.measures import DiscreteMeasure, sampler_from_string, uniform_pair
from empwass.metric_core import FiniteMetricSpace
from empwass.mc_harness import replicate_seed
from empwass.ot_exact import (_GL_VALUES, _MAX_REPLICATION, MAX_MCF_ATOMS,
                              OTError, wpp_1d, wpp_1d_arrays,
                              wpp_1d_vs_quantile, wpp_mcf,
                              wpp_rows_vs_quantile, wpp_to_point)


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


@pytest.mark.parametrize("defect", ["rows", "cols", "negative"])
def test_wpp_mcf_checks_plan_marginals(monkeypatch, defect):
    # HiGHS reports success, but the plan it returns is no transport plan
    rng = np.random.default_rng(8)
    xa, xb = np.sort(rng.normal(size=4)), np.sort(rng.normal(size=3))
    mu, nu = _pair(xa, rng.dirichlet(np.ones(4)), xb, rng.dirichlet(np.ones(3)))
    solve = _kernels.transport_simplex

    def bad_plan(a, b, C, tol, max_iter):
        X, status = solve(a, b, C, tol, max_iter)
        if defect == "rows":
            X = np.outer(np.full(a.size, 1.0 / a.size), b)
        elif defect == "cols":
            X = np.outer(a, np.full(b.size, 1.0 / b.size))
        else:   # a cycle keeps both marginals and drives X[0, 0] below 0
            t = X[0, 0] + 1e-6
            X = X.copy()
            X[[0, 1], [0, 1]] -= t
            X[[0, 1], [1, 0]] += t
        return X, status

    monkeypatch.setattr(_kernels, "transport_simplex", bad_plan)
    with pytest.raises(OTError, match="marginals"):
        wpp_mcf(mu, nu, 2.0)


def test_wpp_mcf_checks_assignment_plans(monkeypatch):
    # the assignment branch's plan passes the same check as HiGHS's: an
    # assignment that sends every row to column 0 misses nu's marginals
    rng = np.random.default_rng(8)
    _, mu, nu = uniform_pair(rng.random((4, 2)), rng.random((6, 2)))
    monkeypatch.setattr(ot_exact, "linear_sum_assignment",
                        lambda E: (np.arange(len(E)), np.zeros(len(E), int)))
    with pytest.raises(OTError, match="target marginals"):
        wpp_mcf(mu, nu, 1.0)


def test_wpp_1d_refuses_points_off_the_line():
    cloud = np.random.default_rng(1).random((6, 3))
    _, mu, nu = uniform_pair(cloud, cloud)
    with pytest.raises(OTError, match="measure is not supported on the line"):
        wpp_1d(mu, nu, 1.0)


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


@pytest.mark.parametrize("m, n", [(20, 20), (16, 24), (32, 24), (25, 30)])
def test_uniform_assignment_path_matches_simplex(m, n):
    rng = np.random.default_rng(8)
    space, mu, nu_uniform = uniform_pair(rng.normal(size=(m, 2)),
                                         rng.normal(size=(n, 2)))
    # weights perturbed to defeat the assignment path
    w = np.full(n, 1.0 / n)
    w[0] += 1e-9
    w[1] -= 1e-9
    nu_perturbed = DiscreteMeasure(space, nu_uniform.idx, w)
    fast, plan = wpp_mcf(mu, nu_uniform, 2.0)
    slow, _ = wpp_mcf(mu, nu_perturbed, 2.0)
    assert fast.value == pytest.approx(slow.value, rel=1e-6)
    plan.validate(mu, nu_uniform, 2.0)


# (m, n) with m, n <= 40 whose replication factor (L/m)(L/n) =
# (m/g)(n/g), L = lcm(m, n), g = gcd(m, n), is within the limit
_ASSIGNMENT_SHAPES = [(m, n) for m in range(1, 41) for n in range(1, 41)
                      if m * n <= _MAX_REPLICATION * math.gcd(m, n) ** 2]


def _simplex_cost(C):
    m, n = C.shape
    X, status = _kernels.transport_simplex(
        np.full(m, 1.0 / m), np.full(n, 1.0 / n), C,
        1e-12 * max(1.0, float(C.max())), 4000 * (m + n + 8))
    assert status == 0
    return float(np.sum(X * C))


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(_ASSIGNMENT_SHAPES),
       p=st.sampled_from([1.0, 2.0]), seed=st.integers(0, 2 ** 32 - 1),
       d=st.integers(1, 3))
@example(shape=(32, 1), p=1.0, seed=0, d=2)    # factor 32: at the limit
@example(shape=(1, 32), p=2.0, seed=1, d=3)
@example(shape=(25, 30), p=2.0, seed=2, d=2)   # factor 30
@example(shape=(32, 24), p=1.0, seed=3, d=3)   # rate-lp-3d's shapes
@example(shape=(16, 24), p=1.0, seed=4, d=3)
def test_uniform_assignment_matches_simplex_oracle(shape, p, seed, d):
    # the expanded assignment reaches the LP optimum, and its plan is a
    # transport plan of the measures whose cost is the reported one
    m, n = shape
    rng = np.random.default_rng(seed)
    space, mu, nu = uniform_pair(rng.random((m, d)), rng.random((n, d)))
    value, plan = wpp_mcf(mu, nu, p)
    want = _simplex_cost(space.distance_block(mu.idx, nu.idx) ** p)
    assert value.value == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert plan.cost == value.value
    plan.validate(mu, nu, p)
    # each entry is k/L for a whole k, in row-major order
    L = math.lcm(m, n)
    assert np.array_equal(plan.mass * L, np.round(plan.mass * L))
    keys = plan.src * n + plan.dst
    assert np.all(np.diff(keys) > 0)


def _counted_solvers(monkeypatch):
    """Counters of assignment and simplex solves in wpp_mcf; the simplex
    is replaced by the product plan, so a large routed shape costs no
    LP."""
    calls = {"assignment": 0, "simplex": 0}
    assign = ot_exact.linear_sum_assignment

    def counted_assignment(C):
        calls["assignment"] += 1
        return assign(C)

    def counted_simplex(a, b, C, tol, max_iter):
        calls["simplex"] += 1
        return np.outer(a, b), 0

    monkeypatch.setattr(ot_exact, "linear_sum_assignment", counted_assignment)
    monkeypatch.setattr(_kernels, "transport_simplex", counted_simplex)
    return calls


@pytest.mark.parametrize("m, n, weights, solver", [
    (16, 24, "uniform", "assignment"),     # rate-lp-3d, --mref 24
    (32, 24, "uniform", "assignment"),
    (32, 1, "uniform", "assignment"),      # factor 32, the limit
    (40, 40, "uniform", "assignment"),
    (3, 11, "uniform", "simplex"),         # factor 33, past the limit
    (14, 9, "uniform", "simplex"),         # factor 126
    (2600, 1300, "uniform", "simplex"),    # factor 2, L past the cap
    (16, 24, "dirichlet", "simplex"),
    (20, 20, "dirichlet", "simplex"),
])
def test_wpp_mcf_routes_uniform_shapes(monkeypatch, m, n, weights, solver):
    calls = _counted_solvers(monkeypatch)
    rng = np.random.default_rng(11)
    space, mu, nu = uniform_pair(rng.random((m, 3)), rng.random((n, 3)))
    if weights == "dirichlet":
        mu = DiscreteMeasure(space, mu.idx, rng.dirichlet(np.ones(m)))
        nu = DiscreteMeasure(space, nu.idx, rng.dirichlet(np.ones(n)))
    wpp_mcf(mu, nu, 1.0)
    assert calls == {"assignment": int(solver == "assignment"),
                     "simplex": int(solver == "simplex")}


# Equal-size uniform instances: float.hex of the value and sha256 of the
# plan's src, dst and mass bytes, recorded while only m = n took the
# assignment path (before it expanded unequal sizes to lcm(m, n)).
_EQUAL_SIZE_PINS = {
    (0, 1, 2, 0, 1.0): ("0x1.4b8dcdca77ae0p-1",
        "04ae04134c8318578c932394683055fea108f3f586ff5b055613752c5f03e6f5"),
    (1, 7, 2, 0, 1.0): ("0x1.06a0227e2b5ffp-2",
        "00937c4ec69d621b3b6d480a4aae48d8b4e02ef1c7f99d888ce31acf0f3cb35e"),
    (2, 24, 3, 0, 1.0): ("0x1.27e4fec0b645ep-2",
        "5c5f38f4dbf04d7cdae320d70a357252bd545172e4ff1f9681982582489e77da"),
    (3, 32, 3, 0, 2.0): ("0x1.140036a0fb1aep-4",
        "b7e8df56c5496c1346629eb4d744a3006b30bd987ac56922ed31d8455b9d9dce"),
    (4, 40, 1, 0, 1.5): ("0x1.3ae5d698908cep-6",
        "45dcf00063d352027b5a96b81797615767cbcbb2656889e991552c7e7f5c0872"),
    (5, 6, 2, 2, 2.0): ("0x1.921ace97e1717p-3",
        "2454e4b630408a8cc55bd6f78d6aa4bc693afe2ca0e8c3329f529fc8d5187199"),
}


@pytest.mark.parametrize("case", sorted(_EQUAL_SIZE_PINS))
def test_equal_size_assignment_pinned(case):
    seed, n, d, zeros, p = case
    rng = np.random.default_rng(seed)
    space, mu, nu = uniform_pair(rng.random((n + zeros, d)),
                                 rng.random((n, d)))
    if zeros:   # mu carries `zeros` atoms of weight 0 between its others
        w = np.full(n + zeros, 1.0 / n)
        w[1:1 + 2 * zeros:2] = 0.0
        mu = DiscreteMeasure(space, mu.idx, w)
    value, plan = wpp_mcf(mu, nu, p)
    digest = hashlib.sha256(b"".join(
        a.tobytes() for a in (plan.src, plan.dst, plan.mass))).hexdigest()
    assert (float.hex(value.value), digest) == _EQUAL_SIZE_PINS[case]
    assert float.hex(plan.cost) == float.hex(value.value)


def test_transport_plan_marginals_validate():
    rng = np.random.default_rng(3)
    xa, xb = np.sort(rng.normal(size=6)), np.sort(rng.normal(size=5))
    wa, wb = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(5))
    mu, nu = _pair(xa, wa, xb, wb)
    res, plan = wpp_mcf(mu, nu, 2.0)
    assert plan is not None
    plan.validate(mu, nu, 2.0)


def test_plan_rows_cost_what_the_solve_used():
    # each row's cost is its mass times the entry of the solve's cost
    # matrix, not a norm recomputed by another formula
    rng = np.random.default_rng(3)
    space = FiniteMetricSpace.from_points(rng.random((23, 2)))
    mu = DiscreteMeasure(space, np.arange(14), np.full(14, 1.0 / 14))
    nu = DiscreteMeasure(space, 14 + np.arange(9), np.full(9, 1.0 / 9))
    _, plan = wpp_mcf(mu, nu, 2.0)
    C = space.distance_block(mu.idx, nu.idx) ** 2.0
    rows = plan.to_rows(mu, nu, 2.0)
    assert [c for *_, c in rows] == [m * C[i, j] for i, j, m, _ in rows]
    plan.validate(mu, nu, 2.0)


def test_wpp_mcf_accepts_weight_sums_within_measure_tolerance():
    # each weight sum is within DiscreteMeasure's 1e-10 of 1, so the two
    # sums may differ by up to 2e-10; the solve rescales nu to mu's total
    space = FiniteMetricSpace.from_points(np.arange(5.0))
    mu = DiscreteMeasure(space, [0, 1], [0.5 + 0.45e-10] * 2)
    nu = DiscreteMeasure(space, [2, 3, 4], [1 / 3 - 0.3e-10] * 3)
    value, plan = wpp_mcf(mu, nu, 1.0)
    assert value.value == pytest.approx(2.5, rel=1e-9)
    plan.validate(mu, nu, 1.0)


def test_wpp_1d_vs_quantile_uniform_reference():
    # W_1(empirical {1/4, 3/4} vs uniform[0,1]) has closed-form value 1/8
    # via |F_n(x) - x| piecewise integration (hand derivation)
    s = sampler_from_string("uniform-cube:1")
    got = wpp_1d_vs_quantile(np.array([0.25, 0.75]), s.quantile, 1.0,
                             quantile_antideriv=s.quantile_antideriv)
    assert got.value == pytest.approx(0.125, rel=1e-9)
    # p = 2: integral of (Q(u) - X_(i))^2 du; oracle by dense numeric quadrature
    u = (np.arange(2_000_000) + 0.5) / 2_000_000
    q = s.quantile(u)
    x = np.where(u < 0.5, 0.25, 0.75)
    want = np.mean((q - x) ** 2)
    got2 = wpp_1d_vs_quantile(np.array([0.25, 0.75]), s.quantile, 2.0)
    assert got2.value == pytest.approx(want, rel=1e-5)


_QUANTILE_FAMILIES = ("uniform-cube:1", "pareto-radial:3", "pareto-radial:2.5",
                      "exp-radial:1:1", "exp-radial:0.5:2", "uniform-sphere:1",
                      "point-mass:1")


@st.composite
def _quantile_rows(draw):
    """A family, p < a, and R sorted rows of n draws, some with duplicated
    values and values outside the family's support."""
    sampler = sampler_from_string(draw(st.sampled_from(_QUANTILE_FAMILIES)))
    p = draw(st.sampled_from([p for p in (1.0, 1.5, 2.0)
                              if sampler.family != "pareto-radial"
                              or p < sampler.a]))
    n = draw(st.integers(1, 300))
    R = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs = np.stack([sampler.draw(n, rng)[:, 0] for _ in range(R)])
    if draw(st.booleans()):      # duplicates
        k = rng.integers(0, n, size=(R, n // 2))
        xs[:, : n // 2] = np.take_along_axis(xs, k, axis=1)
    if draw(st.booleans()):      # outside the support
        out = rng.random((R, n)) < 0.3
        xs[out] = rng.choice([-3.0, -0.5, 0.3, 0.7, 1.5, 4.0], size=out.sum())
    anti = sampler.quantile_antideriv
    if p != 1.0 or anti(np.asarray([0.5])) is None or draw(st.booleans()):
        anti = None
    return sampler, p, np.sort(xs, axis=1), anti


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_quantile_rows())
def test_rows_vs_quantile_match_oracle(wpp_vs_quantile_oracle, case):
    # each row of the block equals a one-replicate evaluation bit for bit
    sampler, p, xs, anti = case
    values = wpp_rows_vs_quantile(xs, sampler.quantile, p, anti)
    assert values.shape == (xs.shape[0],)
    for row, v in zip(xs, values):
        want = wpp_vs_quantile_oracle(row, sampler.quantile, p,
                                      quantile_antideriv=anti)
        assert _bits(v) == _bits(want.value)
        got = wpp_1d_vs_quantile(row[::-1], sampler.quantile, p,
                                 quantile_antideriv=anti)
        assert got == want
        assert _bits(got.value) == _bits(v)


@pytest.mark.parametrize("family, p", [("pareto-radial:3:1", 1.5),
                                       ("uniform-cube:1", 1.0)])
def test_rows_vs_quantile_block_crosses_chunks(family, p):
    # n = 1024 gives 8 rows per Gauss-Legendre chunk, so 20 rows span three
    # chunks; on both paths every row equals its one-row call bit for bit
    s = sampler_from_string(family)
    n = 1024
    assert _GL_VALUES // (32 * n) == 8
    anti = s.quantile_antideriv if p == 1.0 else None
    xs = np.sort(np.stack([s.draw(n, replicate_seed(5, n, r))[:, 0]
                           for r in range(20)]), axis=1)
    values = wpp_rows_vs_quantile(xs, s.quantile, p, anti)
    for row, v in zip(xs, values):
        one = wpp_rows_vs_quantile(row[None, :], s.quantile, p, anti)
        assert _bits(one[0]) == _bits(v)


def test_rows_vs_quantile_rejects_bad_input():
    q = sampler_from_string("uniform-cube:1").quantile
    with pytest.raises(OTError, match="sorted"):
        wpp_rows_vs_quantile(np.array([[0.2, 0.1]]), q, 1.0)
    with pytest.raises(OTError, match=r"\(R, n\)"):
        wpp_rows_vs_quantile(np.array([0.1, 0.2]), q, 1.0)
    with pytest.raises(OTError, match="p must be"):
        wpp_rows_vs_quantile(np.array([[0.1, 0.2]]), q, 0.5)
    with pytest.raises(OTError, match="not monotone"):
        wpp_1d_vs_quantile(np.array([0.1]), lambda u: -u, 1.0)


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


def _digest(family, p, anti):
    """sha256 of the float.hex of wpp_rows_vs_quantile's values on four
    rows of each n in (1, 2, 7, 64, 1000)."""
    s = sampler_from_string(family)
    hexes = []
    for n in (1, 2, 7, 64, 1000):
        rows = np.sort(np.stack([s.draw(n, replicate_seed(0, n, r))[:, 0]
                                 for r in range(4)]), axis=1)
        hexes += [float.hex(float(v)) for v in wpp_rows_vs_quantile(
            rows, s.quantile, p, s.quantile_antideriv if anti else None)]
    return hashlib.sha256("\n".join(hexes).encode()).hexdigest()


# p = 1 (closed form), recorded while each cell still took a 16-node
# Gauss-Legendre pass besides its 32-node one
_P1_PINS = {
    "pareto-radial:3:1":
        "9b7a4349d568b63554ab206bca6b1ac401993a5b2c67c7200ae6ca6db0ec5f28",
    "uniform-cube:1":
        "188115ee161135c66daaaaa78daf3c78ca59e7b3b7676ef13b7b22eaa694c701",
    "uniform-sphere:1":
        "703ea250f41ecb242254d10d6bd8d5d9ffcba95917a69d93248c918b3c9b0786",
    "pareto-radial:1.5:1":
        "d5dbde16e47689ead9662475e53ffba68fa1261a006a6a405c1baf6063affbee",
    "point-mass:1":
        "baeb223984c430574c5f71da28415c7529c9d529c36e2a1fb3970136ab26a4e5",
}


@pytest.mark.parametrize("family", sorted(_P1_PINS))
def test_rows_vs_quantile_p1_pinned(family):
    assert _digest(family, 1.0, anti=True) == _P1_PINS[family]


# Gauss-Legendre panels, recorded at the same point as _P1_PINS, while
# every row still evaluated q at the nodes of every cell itself
_GL_PINS = {
    ("pareto-radial:3:1", 1.5):
        "afa3657bb9e8158a2c3a7668cf36b07ac95ea28b93dd33b6b6600529ba577a20",
    ("uniform-sphere:1", 1.5):
        "9a26983d0949c5110ea51967df0c563eb2936f984f6697e8a115f0cf897e76a3",
    ("uniform-cube:1", 2.0):
        "e3347773308ee157c2c8796f1f58a2fe9d7aa8b0225def6924f8e6d1b39e8b62",
    ("pareto-radial:5:1", 2.0):
        "2d1d4a5d796fc78bc4068cd3ae1413eb35960ab6d91f94054bc70b3d0e41100f",
    ("exp-radial:1:1", 1.0):
        "858afa8aee1ad42b76c72b3142ae910da4bc1ddc98e4a56bdd869536d0dd1e97",
}


@pytest.mark.parametrize("family, p", sorted(_GL_PINS))
def test_rows_vs_quantile_gl_pinned(family, p):
    assert _digest(family, p, anti=False) == _GL_PINS[family, p]

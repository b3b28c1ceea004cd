"""Time each hot kernel of ``empwass._kernels`` on fixed-size seeded inputs.

    python3 perfbench/micro.py SEED OUT.json

Writes ``{kernel: median milliseconds}``. The kernels and shapes follow
``benchmarks/bench_kernels.py``: 10,000 points in the unit 3-cube for the
point kernels, a 300x300 matrix for the matrix cover and a 40x40
transportation problem for the simplex. Each kernel runs once untimed,
then REPEAT times timed.
"""

import json
import statistics
import sys
import time

import numpy as np

N_POINTS = 10_000
N_MATRIX = 300
N_SIMPLEX = 40
REPEAT = 5


def _median_ms(fn, *args, repeat=REPEAT):
    fn(*args)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run(seed: int) -> dict:
    from empwass import _kernels as K

    rng = np.random.default_rng(seed)
    n = N_POINTS
    xa = np.sort(rng.random(n))
    xb = np.sort(rng.random(n))
    cum = np.cumsum(np.full(n, 1.0 / n))
    cum[-1] = 1.0
    pts = rng.random((n, 3))
    centers = pts[:: n // 50].copy()
    D = rng.random((N_MATRIX, N_MATRIX))
    D = D + D.T
    np.fill_diagonal(D, 0.0)
    m = N_SIMPLEX
    a = np.full(m, 1.0 / m)
    C = rng.random((m, m))
    return {
        "wpp_staircase": _median_ms(K.wpp_staircase, xa, cum, xb, cum, 2.0),
        "greedy_cover_pts": _median_ms(K.greedy_cover_pts, pts, 0.2),
        "greedy_packing_pts": _median_ms(K.greedy_packing_pts, pts, 0.4),
        "assign_nearest_pts": _median_ms(K.assign_nearest_pts, pts, centers),
        "greedy_cover_mat": _median_ms(K.greedy_cover_mat, D, 0.5),
        "transport_simplex": _median_ms(K.transport_simplex, a, a, C, 1e-12,
                                        4000 * (2 * m + 8), repeat=3),
    }


if __name__ == "__main__":
    result = run(int(sys.argv[1]))
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)

"""One SHA-256 over the library's outputs, to show that a change keeps them bit for bit.

Run it on two checkouts and compare the printed digests:

    PYTHONPATH=<checkout>/src python tools/identity_digest.py

It needs numpy only and takes a few seconds.  The digest covers:

- the ``repr`` of ``sca_solve`` on the default scenario seeds 0-19, at
  8 dBW seeds 0-19, at K=50 with every budget x10 seeds 0-7, and on the
  two-loop 3 dBW instances seeds 0-31;
- both baselines' ``run_sweep`` rows, ``wall_ms`` dropped, on seeds 0-15
  over ``p_max_dbw`` 0-20 in steps of 2.5;
- ``grid_search_global(grid_n=60)`` on the 32 two-loop instances;
- the latency kernels (``classify_region``, ``min_compute_time``,
  ``min_compute_time_batch``, ``min_compute_time_grad``) and the majorant
  kernels (``convex_compute_time``, ``MajorantCoefficients.at``,
  ``surrogate_batch`` with its partials) on random flows, rho = 1 and
  r = 0 included.
"""

from __future__ import annotations

import hashlib

import numpy as np

import sc3opt
from sc3opt.cli import SweepSpec, run_sweep
from sc3opt.surrogate import MajorantCoefficients, SurrogateAnchor, convex_compute_time, surrogate_batch

POOLS = (
    (range(20), {}),
    (range(20), {"p_max_dbw": 8.0}),
    (range(8), {"k_loops": 50, "p_max_dbw": 20.0, "f_max_ghz": 50.0, "r_max_mbps": 500.0}),
    (range(32), {"k_loops": 2, "p_max_dbw": 3.0}),
)
TWO_LOOP = POOLS[3]


def _solves(feed):
    for seeds, overrides in POOLS:
        for s in seeds:
            feed(repr(sc3opt.sca_solve(sc3opt.generate_scenario(s, overrides))))


def _sweeps(feed):
    sweep = SweepSpec(
        parameter="p_max_dbw",
        values=tuple(2.5 * i for i in range(9)),
        schemes=("power_only", "comm_oriented"),
        seeds=tuple(range(16)),
    )
    for row in run_sweep(sweep):
        feed(repr({key: value for key, value in row.items() if key != "wall_ms"}))


def _grids(feed):
    seeds, overrides = TWO_LOOP
    for s in seeds:
        feed(repr(sc3opt.grid_search_global(sc3opt.generate_scenario(s, overrides), grid_n=60)))


def _random_params(rng, rho=None):
    alpha = rng.uniform(20.0, 200.0)
    return sc3opt.ComputeParams(
        alpha=alpha,
        beta=alpha * rng.uniform(0.1, 0.8),
        rho=rng.uniform(0.05, 1.0) if rho is None else rho,
        tau=rng.uniform(1e-3, 1e-2),
    )


def _kernels(feed):
    rng = np.random.default_rng(2024)
    for i in range(24):
        p = _random_params(rng, rho=1.0 if i % 6 == 0 else None)
        n = 400
        f, r, d = 10.0 ** rng.uniform(6, 10, n), 10.0 ** rng.uniform(4, 8, n), 10.0 ** rng.uniform(5, 7, n)
        r[::9] = 0.0
        f[::13] = p.alpha * d[::13] / p.relay_delay  # the S3/S4 edge, where ties resolve upward
        f[6::13] = np.where(r[6::13] > 0.0, p.beta * r[6::13] / p.rho, f[6::13])  # the S1/S2 edge
        feed(sc3opt.min_compute_time_batch(f, r, d, p))
        for part in sc3opt.min_compute_time_grad(f, r, d, p):
            feed(part)
        flows = list(zip(f.tolist(), r.tolist(), d.tolist()))
        feed(repr([(sc3opt.classify_region(*flow, p).value, sc3opt.min_compute_time(*flow, p)) for flow in flows]))

        f0, r0 = f * 10.0 ** rng.uniform(-0.5, 0.5, n), 10.0 ** rng.uniform(4, 8, n)
        coef = MajorantCoefficients.at(f0, r0, d, p)
        for name in sorted(vars(coef)):
            feed(getattr(coef, name))
        value, partials = surrogate_batch(f, np.maximum(r, 1.0), coef)
        feed(value)
        for part in partials():
            feed(part)
        for j in range(0, n, 40):
            anchor = SurrogateAnchor.at(float(f0[j]), float(r0[j]), float(d[j]), p)
            feed(repr((anchor.region.value, convex_compute_time(f[j], max(r[j], 1.0), anchor, d[j], p))))


def main() -> None:
    digest = hashlib.sha256()

    def feed(item):
        digest.update(item.tobytes() if isinstance(item, np.ndarray) else item.encode())

    for part in (_solves, _sweeps, _grids, _kernels):
        part(feed)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()

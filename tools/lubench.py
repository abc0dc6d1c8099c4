"""Time SuperLU's panel width and the two solve directions on the workload
Jacobians, in paired runs.

``delsolve._factor_and_rcond`` factors every sparse Jacobian with SuperLU's
panel ``delsolve._PANEL_SIZE`` and, when J = J^T bit for bit, takes the
adjoint products of its condition estimate as forward solves.  Both choices
rest on timings of this machine's scipy, so this script measures them again,
for instance after a scipy upgrade.  It builds the Jacobian families the
benchmark workloads factor, each from K (``delsolve._hessian_operator``) at
its unknown columns, and factors each under the column order that
``_factor_and_rcond`` picks for it:

* ``wave-80``: the 80^2 wave band of the ``msff-wave`` tangent solve
  (LinearWave, dt/dx = 1/2, natural order);
* ``wave-96-rung``: the 96 rung of ``square-ladder`` (96 x 192 cells,
  18,145 unknowns, natural order);
* ``dirichlet-48``: the 48^2 HarmonicDirichlet block (minimum-degree order);
* ``quartic-20``: the 20^2 quartic at a field of amplitude 0.1;
* ``wave-colamd``: a wide 40 x 80 wave band, which COLAMD orders.

Each pair times every variant once, back to back, the order of the variants
reversed from pair to pair, after one untimed warm-up round.  Printed per
family: for ``splu`` with panel widths 1, 2, 4 and SuperLU's default, the
median factor time, the median ratio to the default, the share of pairs in
which it beat the default, and the fill (``L.nnz + U.nnz``); then the median
times of a two-column solve with J (``trans="N"``) and with J^T
(``trans="T"``) on the ``_PANEL_SIZE`` factor, their median ratio and the
share of pairs in which the forward solve was faster.

Usage::

    python tools/lubench.py [--pairs 25] [--family wave-96-rung ...]

Run it from a checkout on an otherwise idle machine; BLAS threads follow the
environment as for any other process.  It is not a tier-1 test.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mslab import (HarmonicDirichlet, LinearWave, RectRegion,  # noqa: E402
                   build_mesh, delsolve, quartic_test_density)
from mslab.jetmesh import interior_index, region_index  # noqa: E402

# name: (density, nt, nx, dt/dx, amplitude of the field K is taken at)
FAMILIES = {
    "wave-80": (LinearWave, 80, 80, 0.5, 0.0),
    "wave-96-rung": (LinearWave, 192, 96, 0.5, 0.0),
    "dirichlet-48": (HarmonicDirichlet, 48, 48, 0.5, 0.0),
    "quartic-20": (quartic_test_density(1.0), 20, 20, 0.5, 0.1),
    "wave-colamd": (LinearWave, 40, 80, 0.5, 0.0),
}
PANELS = (1, 2, 4, None)  # None: SuperLU's default


def jacobian(density, nt: int, nx: int, ratio: float, amplitude: float):
    """K of the whole nt x nx mesh's interior, at its unknown columns."""
    mesh = build_mesh(dt=ratio / nx, dx=1.0 / nx, nt=nt, nx=nx)
    region, ncols = RectRegion(0, 0, nt, nx), nx + 1
    inner = interior_index(region, ncols)
    values = amplitude * np.random.default_rng(0).standard_normal(mesh.shape)
    k = delsolve._hessian_operator(density, values, region_index(region, ncols), inner,
                                   mesh.dt, mesh.dx, "lubench")
    return k[:, inner].tocsc()


def module_order(jac) -> dict:
    """The ``splu`` keywords ``_factor_and_rcond`` factors ``jac`` with,
    less the panel width."""
    seen, splu = [], delsolve.splu

    def recorded(*args, **kwargs):
        seen.append(kwargs)
        return splu(*args, **kwargs)

    delsolve.splu = recorded
    try:
        delsolve._factor_and_rcond(jac, "lubench")
    finally:
        delsolve.splu = splu
    kwargs = dict(seen[0])
    kwargs.pop("panel_size", None)
    return kwargs


def paired(variants: dict, pairs: int) -> dict:
    """Seconds per call of each variant, one list entry per pair."""
    times = {name: [] for name in variants}
    names = list(variants)
    for round_ in range(pairs + 1):  # round 0 warms up and is not timed
        for name in names if round_ % 2 else names[::-1]:
            start = time.perf_counter()
            variants[name]()
            if round_:
                times[name].append(time.perf_counter() - start)
    return times


def bench(name: str, pairs: int) -> None:
    jac = jacobian(*FAMILIES[name])
    order = module_order(jac)
    n = jac.shape[0]
    print(f"{name}: n = {n}, nnz = {jac.nnz}, {order}, {pairs} pairs")
    factor = {panel: (lambda panel=panel: delsolve.splu(jac, panel_size=panel, **order))
              for panel in PANELS}
    times = paired(factor, pairs)
    default = times[None]
    for panel in PANELS:
        lu = factor[panel]()
        ratios = [t / d for t, d in zip(times[panel], default)]
        label = "default" if panel is None else str(panel)
        print(f"  splu panel {label:7s} {statistics.median(times[panel]) * 1e3:9.3f} ms  "
              f"ratio {statistics.median(ratios):.4f}  "
              f"won {sum(r < 1.0 for r in ratios) / pairs:4.0%}  "
              f"fill {lu.L.nnz + lu.U.nnz}")
    lu = delsolve.splu(jac, panel_size=delsolve._PANEL_SIZE, **order)
    b = np.random.default_rng(1).standard_normal((n, 2))
    times = paired({t: (lambda t=t: lu.solve(b, trans=t)) for t in "NT"}, pairs)
    ratios = [f / a for f, a in zip(times["N"], times["T"])]
    print(f"  two-column solve  N {statistics.median(times['N']) * 1e3:.3f} ms  "
          f"T {statistics.median(times['T']) * 1e3:.3f} ms  "
          f"N/T {statistics.median(ratios):.4f}  "
          f"N won {sum(r < 1.0 for r in ratios) / pairs:.0%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=25)
    parser.add_argument("--family", action="append", choices=list(FAMILIES),
                        help="family to time (repeatable; default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    for name in args.family or list(FAMILIES):
        bench(name, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())

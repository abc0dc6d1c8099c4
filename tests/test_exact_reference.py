"""Float routes against the exact rational reference (``exact_reference``).

Each gate states its rounding bound with Higham's gamma_k = k u / (1 - k u),
u the unit roundoff, against an exact scale:
- K from ``_hessian_operator``: each entry is a sum of up to six triangle
  terms, each a few products and three-term sums of area * jac^T C jac, so
  within gamma_16 of the sum of the absolute values of its terms;
- ``solve_bvp`` of a quadratic density: one backward-stable LU solve of
  K_ii x = -K_ib phi, so |x - x*|_inf <= gamma_3n cond_1(K_ii) |x*|_inf over
  its n unknowns (K_ii is symmetric, so cond_inf = cond_1);
- ``_inverse_norm``: ||K_ii^-1||_1 from one transposed solve (the M-matrix
  route) or from the inverse (the dense route), each within
  gamma_3n cond_1(K_ii) of the exact norm.
"""

from fractions import Fraction
from functools import lru_cache

import exact_reference as exact
import numpy as np
import pytest

from mslab import (BoundaryData, HarmonicDirichlet, LinearWave, QuadraticDensity, RectRegion,
                   boundary_nodes, build_mesh, solve_bvp)
from mslab.delsolve import _factor_and_rcond, _hessian_operator, _inverse_norm
from mslab.jetmesh import interior_index, node_index, region_index

U = np.finfo(float).eps / 2
FULL = QuadraticDensity(vv=1.0, ww=-0.7, uu=-0.3, vw=0.2, vu=0.1, wu=-0.4, name="full")
# Spacings that are not dyadic, so the float routes round.
MESHES = {"4x4": (0.07, 0.11, 4, 4), "6x5": (0.3, 0.45, 6, 5), "5x6": (0.033, 0.05, 5, 6)}


def gamma(k: int) -> float:
    return k * U / (1.0 - k * U)


def mesh_and_region(sizes):
    dt, dx, nt, nx = sizes
    return build_mesh(dt=dt, dx=dx, nt=nt, nx=nx), RectRegion(0, 0, nt, nx)


@lru_cache(maxsize=None)  # each inverse takes about 0.2 s; two tests read it
def exact_norms(density, sizes) -> tuple:
    """(||K_ii^-1||_1, cond_1(K_ii) = ||K_ii||_1 ||K_ii^-1||_1), exactly."""
    mesh, region = mesh_and_region(sizes)
    _, k_ii, _ = exact.interior_block(density, region, mesh.dt, mesh.dx)
    inverse = exact.inverse_one_norm(density, region, mesh.dt, mesh.dx)
    return inverse, inverse * max(sum(abs(row[c]) for row in k_ii) for c in range(len(k_ii)))


@pytest.mark.parametrize("sizes", MESHES.values(), ids=MESHES.keys())
@pytest.mark.parametrize("density", [LinearWave, HarmonicDirichlet, FULL],
                         ids=["wave", "dirichlet", "full"])
def test_hessian_operator_within_gamma_16(density, sizes):
    mesh, region = mesh_and_region(sizes)
    ncols = mesh.nx + 1
    nodes = [(n, i) for n in range(mesh.nt + 1) for i in range(ncols)]
    k = _hessian_operator(density, np.zeros(mesh.shape), region_index(region, ncols),
                          node_index(nodes, ncols), mesh.dt, mesh.dx, "reference").toarray()
    k_exact = exact.hessian_operator(density, region, mesh.dt, mesh.dx)
    k_scale = exact.hessian_operator(density, region, mesh.dt, mesh.dx, magnitude=True)
    for r, row in enumerate(nodes):
        for c, col in enumerate(nodes):
            want = k_exact.get((row, col), Fraction(0))
            bound = gamma(16) * k_scale.get((row, col), Fraction(0))
            assert abs(Fraction(k[r, c]) - want) <= bound, (row, col, k[r, c], float(want))


@pytest.mark.parametrize("sizes", MESHES.values(), ids=MESHES.keys())
@pytest.mark.parametrize("density", [LinearWave, HarmonicDirichlet], ids=["wave", "dirichlet"])
def test_solve_bvp_within_the_condition_bound(density, sizes):
    mesh, region = mesh_and_region(sizes)
    nodes = boundary_nodes(region)  # the order BoundaryData reads
    assert sorted(nodes) == sorted(exact.boundary(region))
    data = np.random.default_rng(sum(sizes[2:])).standard_normal(len(nodes))
    field = solve_bvp(density, mesh, BoundaryData(region, data)).field
    want = exact.dirichlet_solve(density, region, mesh.dt, mesh.dx, dict(zip(nodes, data)))
    scale = max(abs(x) for x in want.values())
    bound = gamma(3 * len(want)) * exact_norms(density, sizes)[1] * scale
    assert max(abs(Fraction(field[nd]) - x) for nd, x in want.items()) <= bound


class _CountingLu:
    """An LU whose solves are recorded by the number of dimensions of their
    right-hand side."""

    def __init__(self, lu):
        self.lu, self.solves = lu, []

    def solve(self, b, trans="N"):
        self.solves.append(np.ndim(b))
        return self.lu.solve(b, trans=trans)


@pytest.mark.parametrize("density, z_matrix, solves", [
    (HarmonicDirichlet, True, [1]), (LinearWave, False, [2])], ids=["m-matrix", "dense"])
@pytest.mark.parametrize("sizes", MESHES.values(), ids=MESHES.keys())
def test_inverse_norm_within_the_condition_bound(density, z_matrix, solves, sizes):
    mesh, region = mesh_and_region(sizes)
    ncols = mesh.nx + 1
    inner = interior_index(region, ncols)
    k = _hessian_operator(density, np.zeros(mesh.shape), region_index(region, ncols), inner,
                          mesh.dt, mesh.dx, "reference")
    lu, _ = _factor_and_rcond(k[:, inner], "reference")
    counting = _CountingLu(lu)
    got = _inverse_norm(counting, len(inner), z_matrix)
    assert counting.solves == solves  # one transposed solve, or the inverse
    want, condition = exact_norms(density, sizes)
    bound = gamma(3 * len(inner)) * condition * want
    assert abs(Fraction(got) - want) <= bound

"""The array triangle kernel against the per-triangle functions.

On random fields and random cell sizes, for quadratic, quartic and
user-defined densities, every kernel output must agree with the
per-triangle functions to round-off: slot gradients with ``grad_Ld``,
Hessians and their triplets with ``hess_Ld``, DEL residuals with
``del_residual``, and the patch two-form terms and linearised residuals of
``msforms`` with per-node loops over ``omega_k`` and ``hess_Ld``.
``grad_Ld`` shares the kernel's slot chain rule and equals it bit for bit,
and ``omega_k`` is a one-triangle view of ``_slot_two_forms``, so those
comparisons check the gather, the scatter and the patch assembly, not the
formulas; the independent route for the formulas is the exact rational
reference of ``test_exact_kernel.py``.  The action
enters through Euler's identity for quadratic densities: the action is then
homogeneous of degree two in the node values, so u . grad S = 2 S with S the
sum of ``eval_Ld`` over the triangles.

A ``QuadraticDensity`` subclass that adds a potential and sets
``is_quadratic`` False must be treated as the nonlinear density it is, by the
kernel, ``hess_Ld``, the solvers and the quadratic-only checks alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import (
    BoundaryData,
    DiscreteField,
    JetTriple,
    LinearWave,
    Patch3Region,
    QuadraticDensity,
    RectRegion,
    UserDensity,
    boundary_nodes,
    build_mesh,
    continuous_msff_residual,
    ddw_residual,
    del_residual,
    eval_Ld,
    grad_Ld,
    TriangleIndex,
    hess_Ld,
    jet_extension,
    linearized_del_residual,
    msff_residual_region,
    omega_k,
    quartic_test_density,
    solve_bvp,
    tangent_solve,
    wave_exact_solutions,
)
from mslab import lagrangian
from mslab.jetmesh import region_index, triangle_index
from mslab.lagrangian import triangle_kernel
from mslab.msforms import _region_patch_terms

RTOL = 1e-13

DENSITIES = [
    LinearWave,
    QuadraticDensity(vv=1.0, ww=-1.0, uu=0.5, vw=0.2, vu=-0.1, wu=0.3,
                     name="full_quadratic"),
    quartic_test_density(0.7),
    UserDensity(lambda v, w, u: 0.5 * v * v - 0.5 * w * w + 0.1 * v * w * u
                + 0.05 * u ** 4, name="user_quartic"),
]

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "density": st.sampled_from(DENSITIES),
    "nt": st.integers(2, 5),
    "nx": st.integers(2, 5),
    "dt": st.floats(0.1, 2.0),
    "dx": st.floats(0.1, 2.0),
})


def close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    return np.allclose(a, b, rtol=RTOL, atol=RTOL * scale)


def random_field(case):
    mesh = build_mesh(case["dt"], case["dx"], case["nt"], case["nx"])
    rng = np.random.default_rng(case["seed"])
    return DiscreteField(mesh, 0.5 * rng.standard_normal(mesh.shape))


def triangle_set(field, kind, rng):
    """(index, triples, equation nodes, periodic) of one kind of input."""
    mesh = field.mesh
    ncols = mesh.nx + 1
    if kind == "rect":
        n0, i0 = rng.integers(0, mesh.nt - 1), rng.integers(0, mesh.nx - 1)
        region = RectRegion(int(n0), int(i0), int(rng.integers(2, mesh.nt - n0 + 1)),
                            int(rng.integers(2, mesh.nx - i0 + 1)))
        index = region_index(region, ncols)
        nodes = [(n, i) for n in range(region.n0 + 1, region.n1)
                 for i in range(region.i0 + 1, region.i1)]
    elif kind == "patch3":
        n, i = int(rng.integers(1, mesh.nt)), int(rng.integers(1, mesh.nx))
        index = region_index(Patch3Region(n, i), ncols)
        nodes = [(n, i)]
    else:
        n = int(rng.integers(1, mesh.nt))
        index = triangle_index(np.array([[n - 1], [n]]), np.arange(ncols), ncols,
                               periodic=True)
        nodes = [(n, i) for i in range(ncols)]
    flat = field.values.ravel()
    triples = [JetTriple(*(float(flat[k]) for k in verts), mesh.dt, mesh.dx)
               for verts in zip(*index)]
    return index, triples, nodes, kind == "ring"


@settings(max_examples=60, deadline=None)
@given(case=cases, scale=st.sampled_from([1e-3, 1.0, 30.0]))
def test_grad_Ld_is_the_kernel_bit_for_bit(case, scale):
    # grad_Ld takes the density's partials on one triangle's floats and the
    # kernel on jet arrays; both go through _slot_gradients, and the partials
    # see the same operations either way, so every slot gradient is equal.
    field = random_field(case)
    mesh = field.mesh
    values = scale * field.values
    index = region_index(RectRegion(0, 0, mesh.nt, mesh.nx), mesh.nx + 1)
    grads = triangle_kernel(case["density"], values, index, mesh.dt, mesh.dx).grads
    flat = values.ravel()
    scalar = [grad_Ld(case["density"], JetTriple(*flat[list(verts)].tolist(), mesh.dt, mesh.dx))
              for verts in zip(*index)]
    assert [tuple(g) for g in grads.T.tolist()] == scalar


@settings(max_examples=60, deadline=None)
@given(case=cases, scale=st.sampled_from([1e-3, 1.0, 30.0]))
def test_omega_k_is_the_region_two_forms_bit_for_bit(case, scale):
    # omega_k runs _slot_two_forms on one triangle's floats, msforms on the
    # kernel's Hessian and tangent arrays of a region; every slot two-form
    # sees the same operations either way.
    field = random_field(case)
    mesh = field.mesh
    rng = np.random.default_rng(case["seed"])
    values = scale * field.values
    xi, eta = (rng.standard_normal(mesh.shape).ravel() for _ in range(2))
    index = region_index(RectRegion(0, 0, mesh.nt, mesh.nx), mesh.nx + 1)
    hess = triangle_kernel(case["density"], values, index, mesh.dt, mesh.dx,
                           gradient=False, hessian=True).hess
    forms = lagrangian._slot_two_forms(hess, xi[index], eta[index])
    flat = values.ravel()
    scalar = [[omega_k(case["density"], JetTriple(*flat[list(verts)].tolist(), mesh.dt, mesh.dx),
                       k, xi[list(verts)], eta[list(verts)]) for k in (1, 2, 3)]
              for verts in zip(*index)]
    assert forms.T.tolist() == scalar


@pytest.mark.parametrize("kind", ["rect", "patch3", "ring"])
@settings(max_examples=40, deadline=None)
@given(case=cases)
def test_kernel_matches_scalar_route(kind, case):
    field = random_field(case)
    density, mesh = case["density"], field.mesh
    index, triples, nodes, periodic = triangle_set(
        field, kind, np.random.default_rng(case["seed"] + 1))
    terms = triangle_kernel(density, field.values, index, mesh.dt, mesh.dx,
                            hessian=True)

    assert close(terms.grads.T, [grad_Ld(density, t) for t in triples])
    scalar_hess = np.array([hess_Ld(density, t) for t in triples])
    assert close(terms.hess, scalar_hess)

    # Triplets: the same matrix as assembling the scalar Hessians node by node.
    size = field.values.size
    dense = np.zeros((size, size))
    np.add.at(dense, (terms.triplets[0], terms.triplets[1]), terms.triplets[2])
    reference = np.zeros((size, size))
    for m, verts in zip(scalar_hess, zip(*index)):
        reference[np.ix_(verts, verts)] += m
    assert close(dense, reference)

    ncols = mesh.nx + 1
    residual = [terms.residual[n * ncols + i] for n, i in nodes]
    assert close(residual, [del_residual(density, field, n, i, periodic=periodic)
                            for n, i in nodes])


@settings(max_examples=60, deadline=None)
@given(case=cases)
def test_gradient_and_action_satisfy_euler_identity(case):
    field = random_field(case)
    density = case["density"]
    if not density.is_quadratic:
        density = DENSITIES[1]
    mesh = field.mesh
    region = RectRegion(0, 0, mesh.nt, mesh.nx)
    index = region_index(region, mesh.nx + 1)
    terms = triangle_kernel(density, field.values, index, mesh.dt, mesh.dx)
    flat = field.values.ravel()
    actions = [eval_Ld(density, JetTriple(*(float(flat[k]) for k in verts),
                                          mesh.dt, mesh.dx))
               for verts in zip(*index)]
    products = flat * terms.residual
    scale = max(1.0, float(np.sum(np.abs(products))))
    assert abs(np.sum(products) - 2.0 * sum(actions)) <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(case=cases)
def test_patch_forms_match_per_triangle_loops(case):
    field = random_field(case)
    density, mesh = case["density"], field.mesh
    rng = np.random.default_rng(case["seed"] + 2)
    v_var, w_var = (DiscreteField(mesh, rng.standard_normal(mesh.shape))
                    for _ in range(2))
    n, i = int(rng.integers(1, mesh.nt)), int(rng.integers(1, mesh.nx))
    terms, linear = [], 0.0
    for slot, anchor in enumerate(((n, i), (n, i - 1), (n - 1, i))):
        tri = TriangleIndex(*anchor)
        jet = jet_extension(field, tri)
        xi = [v_var[vt] for vt in tri.vertices]
        eta = [w_var[vt] for vt in tri.vertices]
        terms += [omega_k(density, jet, k, xi, eta) for k in (1, 2, 3)
                  if k - 1 != slot]
        linear += float(np.dot(hess_Ld(density, jet)[slot], xi))
    _, patch = _region_patch_terms(density, field, v_var, w_var, Patch3Region(n, i),
                                   np.array([n * (mesh.nx + 1) + i]))
    assert close(patch[0], terms)
    assert close(linearized_del_residual(density, field, v_var, n, i), linear)


def test_non_finite_vertex_values_raise():
    mesh = build_mesh(0.5, 1.0, 2, 2)
    index = region_index(RectRegion(0, 0, 2, 2), mesh.nx + 1)
    # The message names the first slot, in slot order, that holds the value.
    for node, slot in (((1, 1), "u1"), ((0, 2), "u2"), ((2, 0), "u3")):
        values = np.zeros(mesh.shape)
        values[node] = np.nan
        with pytest.raises(ValueError, match=f"non-finite vertex value {slot}"):
            triangle_kernel(LinearWave, values, index, mesh.dt, mesh.dx)
    blowup = UserDensity(lambda v, w, u: 1e308 * (u * u) * 10.0, name="blowup")
    with pytest.raises(ValueError, match="non-finite"):
        triangle_kernel(blowup, np.ones(mesh.shape), index, mesh.dt, mesh.dx)


def _per_slot_residual(grads, index, size):
    """The residual as one bincount per slot, added slot by slot."""
    b1, b2, b3 = (np.bincount(ix, weights=d, minlength=size)
                  for ix, d in zip(index, grads))
    return b1 + b2 + b3


def _eager_triplets(hess, index):
    """Hessian triplets as the kernel once built them on every call."""
    idx = np.stack([np.asarray(ix, dtype=np.int32) for ix in index])
    m = idx.shape[1]
    key = (idx[:, None, :] * 9 + np.arange(0, 9, 3, dtype=idx.dtype).reshape(3, 1, 1)
           + np.arange(3, dtype=idx.dtype).reshape(1, 3, 1)).ravel()
    order = np.argsort(key, kind="stable")
    slot, tri = np.divmod(order, m)
    return key[order] // 9, idx[slot % 3, tri], hess[tri, slot // 3, slot % 3]


def _bits(a):
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("kind", ["rect", "patch3", "ring"])
@settings(max_examples=40, deadline=None)
@given(case=cases)
def test_single_scatter_matches_per_slot_bincounts(kind, case):
    field = random_field(case)
    density, mesh = case["density"], field.mesh
    index = triangle_set(field, kind, np.random.default_rng(case["seed"] + 1))[0]
    assert index.dtype == np.int32 and index.shape[0] == 3
    terms = triangle_kernel(density, field.values, index, mesh.dt, mesh.dx)
    reference = _per_slot_residual(terms.grads, index, field.values.size)
    assert _bits(terms.residual) == _bits(reference)


@pytest.mark.parametrize("kind", ["rect", "patch3", "ring"])
@settings(max_examples=25, deadline=None)
@given(case=cases)
def test_lazy_triplets_equal_eager_triplets(kind, case):
    field = random_field(case)
    density, mesh = case["density"], field.mesh
    index = triangle_set(field, kind, np.random.default_rng(case["seed"] + 1))[0]
    built = []
    sort = lagrangian._hessian_triplets

    def counted(*args):
        built.append(1)
        return sort(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lagrangian, "_hessian_triplets", counted)
        terms = triangle_kernel(density, field.values, index, mesh.dt, mesh.dx,
                                hessian=True)
        assert not built  # nothing read them yet
        rows, cols, vals = terms.triplets
        assert terms.triplets is terms.triplets and len(built) == 1
    ref_rows, ref_cols, ref_vals = _eager_triplets(terms.hess, list(index))
    assert _bits(rows) == _bits(ref_rows) and _bits(cols) == _bits(ref_cols)
    assert _bits(vals) == _bits(ref_vals)
    assert triangle_kernel(density, field.values, index, mesh.dt, mesh.dx).triplets is None


class Phi4Wave(QuadraticDensity):
    """The phi^4 wave (v^2 - w^2)/2 + u^4/4 on top of the linear wave's
    coefficients, with its own derivatives; not quadratic."""

    is_quadratic = False

    def __init__(self):
        super().__init__(vv=1.0, ww=-1.0, name="phi4_wave")

    def value(self, v, w, ubar):
        return super().value(v, w, ubar) + 0.25 * ubar ** 4

    def partials(self, v, w, ubar):
        lv, lw, lu = super().partials(v, w, ubar)
        return lv, lw, lu + ubar ** 3

    def second_partials(self, v, w, ubar):
        h = np.zeros(np.shape(ubar) + (3, 3)) + super().second_partials(v, w, ubar)
        h[..., 2, 2] += 3.0 * np.asarray(ubar) ** 2
        return h


class TestQuadraticSubclassWithPotential:
    density = Phi4Wave()
    mesh = build_mesh(0.05, 0.1, 8, 8)
    region = RectRegion(0, 0, 8, 8)

    def boundary(self, rng):
        return BoundaryData(self.region,
                            rng.standard_normal(len(boundary_nodes(self.region))))

    def test_hessians_are_its_second_partials(self):
        mesh = self.mesh
        field = DiscreteField(mesh, np.random.default_rng(2).standard_normal(mesh.shape))
        index = region_index(self.region, mesh.nx + 1)
        flat = field.values.ravel()
        triples = [JetTriple(*(float(flat[k]) for k in verts), mesh.dt, mesh.dx)
                   for verts in zip(*index)]
        reference = np.array([lagrangian._push_hessian(
            self.density.second_partials(t.v, t.w, t.ubar), mesh.dt, mesh.dx, "reference")
            for t in triples])
        kernel = triangle_kernel(self.density, field.values, index, mesh.dt, mesh.dx,
                                 gradient=False, hessian=True).hess
        assert close(kernel, reference)
        assert close([hess_Ld(self.density, t) for t in triples], reference)

    def test_bvp_and_form_identity(self):
        field = solve_bvp(self.density, self.mesh,
                          self.boundary(np.random.default_rng(2))).field
        rng = np.random.default_rng(3)
        v_var, w_var = tangent_solve(self.density, field, self.region,
                                     [self.boundary(rng), self.boundary(rng)])
        rep = msff_residual_region(self.density, field, v_var, w_var, self.region,
                                   check_variations=True)
        assert abs(rep.residual) <= 1e-12 * rep.max_term

    def test_quadratic_only_checks_reject_it(self):
        with pytest.raises(ValueError, match="quadratic densities"):
            ddw_residual(self.density, DiscreteField.zeros(self.mesh))
        standing = wave_exact_solutions("standing:1")
        with pytest.raises(ValueError, match="quadratic densities"):
            continuous_msff_residual(self.density, standing, standing)

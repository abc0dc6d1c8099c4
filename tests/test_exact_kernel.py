"""The triangle kernel and its one-triangle views against the exact reference.

``grad_Ld`` equals the kernel bit for bit (``test_kernel.py``) and
``omega_k`` is ``_slot_two_forms`` on one triangle, so the independent check
of those formulas is the exact rational reference (``exact_reference``),
here for the four densities of ``test_kernel.py``, each written out as
monomials.

A formula evaluated in floats with +, -, * and / is the exact formula with
each of its terms perturbed by at most n factors (1 + delta), |delta| <= u,
where n counts the roundings on that term (the counts of a product's two
factors add up).  So it is within gamma_n = n u / (1 - n u) of the sum of the
absolute values of its terms (Higham 2002, sec. 3.1), which is what the
reference's ``magnitude`` evaluates.  For these densities, at most:
- 3 roundings in a jet (ubar = (u1 + u2 + u3) / 3);
- 16 in a partial, from the dual tangent of 0.05 ubar^4, formed by repeated
  products; 20 in a slot gradient, A (-Lv/dt - Lw/dx + Lu/3) with
  A = dt dx / 2; 22 in a DEL residual, three slot gradients added from 0.0;
- 13 in a second partial (the nested-dual 12 ubar^2 times a coefficient) and
  10 more in the pull-back area * jac^T h jac, so 23 in a slot Hessian;
  28 in a slot two-form, three terms M[j, k] (xi_j eta_k - eta_j xi_k)
  summed from 0.0;
- 18 in a density value (a float power ubar ** 4 counted as 4 roundings on
  top of four times its argument's 3, as libm powers are within 2 ulps) and
  20 in a triangle action, so T + 19 in a sum of T actions added from 0.0.
"""

from fractions import Fraction

import exact_reference as exact
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import DENSITIES

from mslab import (DiscreteField, HarmonicDirichlet, JetTriple, LinearWave, RectRegion,
                   build_mesh, del_residual, omega_k, region_action)
from mslab.delsolve import _hessian_operator
from mslab.jetmesh import interior_index, node_index, region_index
from mslab.lagrangian import _action_sum, _slot_two_forms, triangle_kernel
from mslab.msforms import _region_patch_terms

U = np.finfo(float).eps / 2

# {(a, b, c): coefficient} of v^a w^b ubar^c, keyed by density name.
MONOMIALS = {
    "linear_wave": {(2, 0, 0): 0.5, (0, 2, 0): -0.5},
    "harmonic_dirichlet": {(2, 0, 0): 0.5, (0, 2, 0): 0.5},
    "full_quadratic": {(2, 0, 0): 0.5, (0, 2, 0): -0.5, (0, 0, 2): 0.25,
                       (1, 1, 0): 0.2, (1, 0, 1): -0.1, (0, 1, 1): 0.3},
    "quartic[0.7]": {(2, 0, 0): 0.5, (0, 2, 0): 0.5, (0, 0, 4): 0.25 * 0.7},
    "user_quartic": {(2, 0, 0): 0.5, (0, 2, 0): -0.5, (1, 1, 1): 0.1, (0, 0, 4): 0.05},
}

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "density": st.sampled_from(DENSITIES),
    "nt": st.integers(2, 6),
    "nx": st.integers(2, 6),
    "dt": st.floats(0.1, 2.0),
    "dx": st.floats(0.1, 2.0),
    "scale": st.sampled_from([0.01, 0.5, 30.0]),
})


def gamma(k: int) -> Fraction:
    return Fraction(k * U / (1.0 - k * U))


def check(got, want, scale, k, where):
    err = abs(Fraction(float(got)) - want)
    assert err <= gamma(k) * scale, (
        f"{where}: {float(got)!r} is {float(err / (U * scale)) if scale else err} u "
        f"of its terms from {float(want)!r}, beyond gamma_{k}")


def drawn(case):
    """(field, region, its triangle index, monomials, rng): a field on a mesh
    of up to 6 x 6 cells and a rectangle of at least 2 x 2 cells in it."""
    mesh = build_mesh(case["dt"], case["dx"], case["nt"], case["nx"])
    rng = np.random.default_rng(case["seed"])
    field = DiscreteField(mesh, case["scale"] * rng.standard_normal(mesh.shape))
    n0, i0 = int(rng.integers(0, mesh.nt - 1)), int(rng.integers(0, mesh.nx - 1))
    region = RectRegion(n0, i0, int(rng.integers(2, mesh.nt - n0 + 1)),
                        int(rng.integers(2, mesh.nx - i0 + 1)))
    return (field, region, region_index(region, mesh.nx + 1),
            MONOMIALS[case["density"].name], rng)


def anchored(anchor) -> list:
    n, i = anchor
    return [(n, i), (n, i + 1), (n + 1, i)]


@settings(max_examples=40, deadline=None)
@given(case=cases)
def test_slot_gradients_and_residuals_within_gamma(case):
    field, region, index, poly, _ = drawn(case)
    density, mesh = case["density"], field.mesh
    dt, dx, ncols = mesh.dt, mesh.dx, mesh.nx + 1
    terms = triangle_kernel(density, field.values, index, dt, dx)
    for t, u in enumerate(field.values.ravel()[index].T):
        want = exact.slot_gradient(poly, u, dt, dx)
        scale = exact.slot_gradient(poly, u, dt, dx, magnitude=True)
        for slot in range(3):
            check(terms.grads[slot, t], want[slot], scale[slot], 20, f"slot {slot + 1}")
    want = exact.residuals(poly, field.values, region, dt, dx)
    scale = exact.residuals(poly, field.values, region, dt, dx, magnitude=True)
    for (n, i), r in want.items():
        check(terms.residual[n * ncols + i], r, scale[n, i], 22, f"kernel residual {(n, i)}")
    for n, i in exact.interior(region):
        check(del_residual(density, field, n, i), want[n, i], scale[n, i], 22,
              f"del_residual {(n, i)}")


@settings(max_examples=30, deadline=None)
@given(case=cases)
def test_slot_hessians_and_patch_two_forms_within_gamma(case):
    field, region, index, poly, rng = drawn(case)
    density, mesh = case["density"], field.mesh
    dt, dx, ncols = mesh.dt, mesh.dx, mesh.nx + 1
    v_var, w_var = (DiscreteField(mesh, rng.standard_normal(mesh.shape)) for _ in range(2))

    def forms(anchor, magnitude):
        nodes = anchored(anchor)
        hess = exact.slot_hessian(poly, [field[nd] for nd in nodes], dt, dx, magnitude)
        return exact.slot_two_forms(hess, [v_var[nd] for nd in nodes],
                                    [w_var[nd] for nd in nodes], magnitude)

    flat = interior_index(region, ncols)
    terms, patch = _region_patch_terms(density, field, v_var, w_var, region, flat)
    for t, u in enumerate(field.values.ravel()[index].T):
        want = exact.slot_hessian(poly, u, dt, dx)
        scale = exact.slot_hessian(poly, u, dt, dx, magnitude=True)
        for a in range(3):
            for b in range(3):
                check(terms.hess[t, a, b], want[a][b], scale[a][b], 23, f"M[{a}, {b}]")
    # Each triangle of a patch contributes its slots not owned by the centre.
    for row, node in zip(patch, flat):
        n, i = divmod(int(node), ncols)
        owned = (((n, i), (1, 2)), ((n, i - 1), (0, 2)), ((n - 1, i), (0, 1)))
        want = [forms(anchor, False)[k] for anchor, slots in owned for k in slots]
        scale = [forms(anchor, True)[k] for anchor, slots in owned for k in slots]
        for term, (got, x, s) in enumerate(zip(row, want, scale)):
            check(got, x, s, 28, f"patch term {term} at {(n, i)}")
    anchor = (region.n0, region.i0)
    jet = JetTriple(*(field[nd] for nd in anchored(anchor)), dt, dx)
    xi, eta = ([var[nd] for nd in anchored(anchor)] for var in (v_var, w_var))
    want, scale = forms(anchor, False), forms(anchor, True)
    for k in range(3):
        check(omega_k(density, jet, k + 1, xi, eta), want[k], scale[k], 28, f"omega_{k + 1}")


@settings(max_examples=40, deadline=None)
@given(case=cases)
def test_action_sums_within_gamma(case):
    field, region, index, poly, _ = drawn(case)
    density, mesh = case["density"], field.mesh
    want = exact.action_sum(poly, field.values, region, mesh.dt, mesh.dx)
    scale = exact.action_sum(poly, field.values, region, mesh.dt, mesh.dx, magnitude=True)
    k = index.shape[1] + 19
    check(_action_sum(density, field.values, index, mesh.dt, mesh.dx), want, scale, k,
          "_action_sum")
    check(region_action(density, field, region), want, scale, k, "region_action")


dyadic_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "density": st.sampled_from([LinearWave, HarmonicDirichlet]),
    "nt": st.integers(2, 6),
    "nx": st.integers(2, 6),
    "dt": st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    "dx": st.sampled_from([0.25, 0.5, 1.0, 2.0]),
})


@settings(max_examples=30, deadline=None)
@given(case=dyadic_cases)
def test_dyadic_inputs_give_the_exact_values(case):
    """With power-of-two dt and dx, and data and tangents k/8 with |k| <= 16,
    every float operation that reaches a result is exact: each operand is a
    multiple of a small power of two with a few significant bits, so sums,
    products and quotients by dt and dx fit in 53 bits.  The two inexact
    operations, ubar's division by 3 and the 1/3 row of the jet map, only
    ever meet the zero coefficients uu, vu and wu of these densities, and
    0 times a finite number is 0.  So the kernel's slot gradients, residuals
    and Hessians, K's entries and the slot two-forms are the exact values."""
    mesh = build_mesh(case["dt"], case["dx"], case["nt"], case["nx"])
    density, dt, dx, ncols = case["density"], mesh.dt, mesh.dx, mesh.nx + 1
    poly = MONOMIALS[density.name]
    rng = np.random.default_rng(case["seed"])
    values, xi, eta = (rng.integers(-16, 17, mesh.shape) / 8.0 for _ in range(3))
    region = RectRegion(0, 0, mesh.nt, mesh.nx)
    index = region_index(region, ncols)
    terms = triangle_kernel(density, values, index, dt, dx, hessian=True)
    forms = _slot_two_forms(terms.hess, xi.ravel()[index], eta.ravel()[index])
    for t, nodes in enumerate(index.T):
        u, x, e = (a.ravel()[nodes] for a in (values, xi, eta))
        hess = exact.slot_hessian(poly, u, dt, dx)
        assert list(map(Fraction, terms.grads[:, t])) == exact.slot_gradient(poly, u, dt, dx)
        assert [list(map(Fraction, row)) for row in terms.hess[t]] == hess
        assert list(map(Fraction, forms[:, t])) == exact.slot_two_forms(hess, x, e)
    residual = exact.residuals(poly, values, region, dt, dx)
    assert {nd: Fraction(terms.residual[nd[0] * ncols + nd[1]]) for nd in residual} == residual
    nodes = [(n, i) for n in range(mesh.nt + 1) for i in range(ncols)]
    k = _hessian_operator(density, values, index, node_index(nodes, ncols), dt, dx,
                          "reference").toarray()
    k_exact = exact.hessian_operator(density, region, dt, dx)
    assert {(row, col): Fraction(k[r, c]) for r, row in enumerate(nodes)
            for c, col in enumerate(nodes)} == {
        (row, col): k_exact.get((row, col), Fraction(0)) for row in nodes for col in nodes}

"""First-order Lagrangian densities and their per-triangle discrete action.

A density is a smooth function L(v, w, ubar) of the jet data of a triangle
(time quotient, space quotient, cell average).  The discrete action carried
by one triangle of cell sizes dt, dx is

    Ld(u1, u2, u3) = (dt*dx/2) * L(v, w, ubar),

i.e. density times triangle area.  The vertex-slot gradient of Ld drives the
discrete Euler-Lagrange equations; its vertex-slot Hessian M generates the
three boundary two-forms

    omega_k(xi, eta) = -sum_j M[j, k] * (xi_j*eta_k - eta_j*xi_k),

one per vertex slot, and the slot one-forms theta_k(xi) = dLd/du_k * xi_k.
The sum of the theta_k is the full differential of Ld and the sum of the
omega_k vanishes identically (antisymmetrised symmetric matrix), which is the
discrete counterpart of the exactness of the boundary forms.

Built-in quadratic densities carry analytic derivatives; arbitrary callables
are differentiated with forward-mode dual numbers (exact to round-off, no
step-size tuning).  A density's ``is_quadratic`` flag is the one test for a
constant Hessian, whatever its class, and its ``second_partials`` is the one
statement of that Hessian: every vertex-slot Hessian is ``second_partials``
pulled back to the slots.  Every evaluation is checked for NaN/Inf, which
raises ValueError; numpy warnings in the density calls (bar the action of a
quadratic density) and in the pull-back are silenced, since that check
reports them.

:func:`triangle_kernel` evaluates the same terms for a whole set of
triangles at once, given as a (3, m) array of flat vertex indices: slot
gradients, their one-``bincount`` scatter-add into DEL residuals, vertex-slot
Hessians and their COO triplets (sorted when first read), calling the density
once on whole jet arrays.  ``_action_sum`` sums the triangle actions of such
a set the same way; the two share one helper that gathers the vertex values,
checks them and forms the jets.  Each per-triangle formula is stated once:
the slot chain rule (``_slot_gradients``) serves the kernel's jet arrays and
``grad_Ld``'s floats alike (and ``theta_k`` through it), so the two agree
bit for bit; the slot two-forms (``_slot_two_forms``) serve the arrays of a
region in ``msforms`` and ``omega_k``'s floats alike, so those agree bit for
bit too; and the kernel takes a quadratic density's constant Hessian from
``hess_Ld``.  ``eval_Ld`` stays a scalar evaluation,
which the array action sum matches bit for bit for a quadratic density.  The
independent route is the exact rational reference of the tests, which holds
these formulas to stated rounding bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import dual
from .jetmesh import JetTriple


class LagrangianDensity:
    """Base class: a named density with value/partials/second-partials."""

    name = "density"
    # True for a quadratic form in (v, w, ubar): the Hessian is constant and
    # the DEL residuals are linear in the node values.  The one test for that,
    # read everywhere in place of the class: a QuadraticDensity subclass that
    # adds a potential sets it False.
    is_quadratic = False

    def value(self, v, w, ubar):
        raise NotImplementedError

    def partials(self, v, w, ubar):
        """(dL/dv, dL/dw, dL/dubar) at a point, or at each point of arrays."""
        return tuple(dual.gradient(self.value, (v, w, ubar)))

    def second_partials(self, v, w, ubar):
        """Symmetric 3x3 Hessian of L in (v, w, ubar); (..., 3, 3) on arrays."""
        h = np.array(dual.hessian(self.value, (v, w, ubar)))
        return np.moveaxis(h, (0, 1), (-2, -1)) if h.ndim > 2 else h

    def __call__(self, v, w, ubar):
        return self.value(v, w, ubar)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


_QUAD_KEYS = ("vv", "ww", "uu", "vw", "vu", "wu")


class QuadraticDensity(LagrangianDensity):
    """L = (vv*v^2 + ww*w^2 + uu*ubar^2)/2 + vw*v*w + vu*v*ubar + wu*w*ubar."""

    is_quadratic = True

    def __init__(self, vv=0.0, ww=0.0, uu=0.0, vw=0.0, vu=0.0, wu=0.0,
                 name="quadratic"):
        coeffs = (vv, ww, uu, vw, vu, wu)
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"non-finite density coefficients {coeffs!r}")
        self.vv, self.ww, self.uu = float(vv), float(ww), float(uu)
        self.vw, self.vu, self.wu = float(vw), float(vu), float(wu)
        self.name = name

    def value(self, v, w, ubar):
        return (0.5 * (self.vv * v * v + self.ww * w * w + self.uu * ubar * ubar)
                + self.vw * v * w + self.vu * v * ubar + self.wu * w * ubar)

    def partials(self, v, w, ubar):
        return (self.vv * v + self.vw * w + self.vu * ubar,
                self.ww * w + self.vw * v + self.wu * ubar,
                self.uu * ubar + self.vu * v + self.wu * w)

    def second_partials(self, v, w, ubar):
        return np.array([[self.vv, self.vw, self.vu],
                         [self.vw, self.ww, self.wu],
                         [self.vu, self.wu, self.uu]])

    def coefficients(self) -> dict:
        return {"vv": self.vv, "ww": self.ww, "uu": self.uu,
                "vw": self.vw, "vu": self.vu, "wu": self.wu}


class UserDensity(LagrangianDensity):
    """Wrap a smooth callable L(v, w, ubar); derivatives via duals.  It is
    evaluated on whole arrays of (nested dual) jets: arithmetic and ``dual.*``
    functions only, with no Python ``if`` on values."""

    def __init__(self, fn: Callable, name="user"):
        self._fn = fn
        self.name = name

    def value(self, v, w, ubar):
        return self._fn(v, w, ubar)


#: Unit-speed wave density L = (v^2 - w^2)/2.
LinearWave = QuadraticDensity(vv=1.0, ww=-1.0, name="linear_wave")

#: Space-time Dirichlet energy L = (v^2 + w^2)/2 (elliptic model problem).
HarmonicDirichlet = QuadraticDensity(vv=1.0, ww=1.0, name="harmonic_dirichlet")


def quartic_test_density(strength: float = 1.0) -> UserDensity:
    """Dirichlet energy plus a quartic average coupling (nonlinear test case)."""
    s = float(strength)

    def fn(v, w, ubar):
        return 0.5 * (v * v + w * w) + 0.25 * s * ubar ** 4

    return UserDensity(fn, name=f"quartic[{s}]")


def density_from_json(obj) -> LagrangianDensity:
    """Density from a name string or a quadratic-coefficient mapping.

    Recognised names: ``linear_wave``, ``harmonic_dirichlet``.  Mappings may
    set any of vv, ww, uu, vw, vu, wu (missing keys default to zero); unknown
    keys are rejected.
    """
    if isinstance(obj, str):
        builtin = {"linear_wave": LinearWave, "harmonic_dirichlet": HarmonicDirichlet}
        if obj not in builtin:
            raise ValueError(f"unknown density name {obj!r}; know {sorted(builtin)}")
        return builtin[obj]
    if isinstance(obj, dict):
        extra = set(obj) - set(_QUAD_KEYS)
        if extra:
            raise ValueError(f"unknown density coefficients {sorted(extra)}")
        return QuadraticDensity(**{k: float(v) for k, v in obj.items()})
    raise ValueError(f"cannot build a density from {obj!r}")


# ---------------------------------------------------------------------------
# Per-triangle action, gradient, Hessian


def _check_finite(name, *vals):
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"{name} produced a non-finite value")


def eval_Ld(density: LagrangianDensity, triple: JetTriple) -> float:
    """Triangle action (dt*dx/2) * L(v, w, ubar)."""
    try:
        if density.is_quadratic:
            val = density.value(triple.v, triple.w, triple.ubar)
        else:  # silenced as in triangle_kernel: the finiteness check reports it
            with np.errstate(all="ignore"):
                val = density.value(triple.v, triple.w, triple.ubar)
    except OverflowError:  # a float ** past the float range; numpy gives inf
        val = math.inf
    out = float(0.5 * triple.dt * triple.dx * val)
    if not math.isfinite(out):
        raise ValueError(f"density {density.name} produced a non-finite value")
    return out


def _slot_gradients(lv, lw, lu, dt: float, dx: float) -> tuple:
    """Vertex-slot gradient (d1, d2, d3) of the triangle action from the
    density's partials (Lv, Lw, Lu) at the jet, floats or arrays alike: the
    chain rule through the affine jet map, with A = dt*dx/2,

        d1 = A * (-Lv/dt - Lw/dx + Lu/3),
        d2 = A * ( Lw/dx          + Lu/3),
        d3 = A * ( Lv/dt          + Lu/3).
    """
    a = 0.5 * dt * dx
    return (a * (-lv / dt - lw / dx + lu / 3.0), a * (lw / dx + lu / 3.0),
            a * (lv / dt + lu / 3.0))


def grad_Ld(density: LagrangianDensity, triple: JetTriple) -> tuple:
    """Vertex-slot gradient (d1, d2, d3) of the triangle action: the density's
    partials at the jet through :func:`_slot_gradients`, on floats.

    The same floating-point operations as :func:`triangle_kernel` on the one
    triangle, so the two agree bit for bit, and its refusal: NaN/Inf in a
    partial raises ValueError, and numpy warnings in the partials are
    silenced, since that check reports them.  An overflow in the jet or the
    chain rule gives the kernel's inf or NaN, without the warning the
    kernel's arrays give where the triple holds Python floats.
    """
    with np.errstate(all="ignore"):
        lv, lw, lu = density.partials(triple.v, triple.w, triple.ubar)
    if not (math.isfinite(lv) and math.isfinite(lw) and math.isfinite(lu)):
        raise ValueError(f"density {density.name} partials produced a non-finite value")
    return tuple(map(float, _slot_gradients(lv, lw, lu, triple.dt, triple.dx)))


_ROW, _COL = np.tril_indices(3, -1)  # the slot pairs below the diagonal


def _push_hessian(h, dt: float, dx: float, name: str):
    """Pull the (v, w, ubar) Hessian back to vertex slots and scale by area.

    ValueError names the density ``name`` if an entry is NaN/Inf.  Every row
    of the jet map has a nonzero entry, so a NaN/Inf in ``h`` reaches the result; a
    tiny step can also overflow the product of finite factors.  The lower
    triangle is the upper one mirrored, so each Hessian, and K, is exactly
    symmetric: jac.T @ h @ jac rounds (a, b) and (b, a) apart when ``h``
    has an off-diagonal entry.
    """
    jac = np.array([[-1.0 / dt, 0.0, 1.0 / dt],
                    [-1.0 / dx, 1.0 / dx, 0.0],
                    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])
    with np.errstate(all="ignore"):  # the finiteness check below reports it
        m = 0.5 * dt * dx * (jac.T @ h @ jac)
    m[..., _ROW, _COL] = m[..., _COL, _ROW]
    if not np.isfinite(m).all():
        raise ValueError(f"density {name} produced a non-finite Hessian")
    return m


def hess_Ld(density: LagrangianDensity, triple: JetTriple):
    """Symmetric 3x3 vertex-slot Hessian of the triangle action: the density's
    ``second_partials`` at the jet, pulled back to vertex slots, for every
    density (a quadratic one's is the same at every jet)."""
    with np.errstate(all="ignore"):  # _push_hessian's finiteness check reports it
        h = np.asarray(density.second_partials(triple.v, triple.w, triple.ubar),
                       dtype=float)
    return _push_hessian(h, triple.dt, triple.dx, density.name)


def theta_k(density: LagrangianDensity, triple: JetTriple, k: int, tangent) -> float:
    """Slot one-form: dLd/du_k times the k-th tangent component.

    The three slot one-forms add up to the full differential of the triangle
    action, so summing theta_k over k reproduces the directional derivative.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"vertex slot must be 1, 2 or 3, got {k}")
    return grad_Ld(density, triple)[k - 1] * float(tangent[k - 1])


def omega_k(density: LagrangianDensity, triple: JetTriple, k: int, xi, eta) -> float:
    """Slot two-form from the antisymmetrised vertex Hessian.

    omega_k(xi, eta) = -sum_j M[j, k] * (xi_j * eta_k - eta_j * xi_k) with M
    the vertex-slot Hessian of the triangle action.  Bilinear and
    antisymmetric in (xi, eta); the sum over k vanishes identically.  It is
    :func:`_slot_two_forms` on the one triangle's floats, the operations it
    performs on m triangles' arrays, so the two agree bit for bit; an
    overflow in it gives inf or NaN, without the warning of the arrays.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"vertex slot must be 1, 2 or 3, got {k}")
    # Floats one by one: an integer array would wrap large Python ints.
    xi, eta = ([float(t[j]) for j in range(3)] for t in (xi, eta))
    return float(_slot_two_forms(hess_Ld(density, triple).tolist(), xi, eta)[k - 1])


def _slot_two_forms(hess, xi, eta):
    """Slot two-forms omega_k(xi, eta), k = 1, 2, 3: (3, m) for m triangles,
    from their (m, 3, 3) vertex-slot Hessians and (3, m) tangent values, or
    (3,) for one triangle, from its 3x3 Hessian as nested lists and three
    floats each.  Each is summed over j in order from 0.0."""
    if isinstance(hess, np.ndarray):
        hess = hess.transpose(1, 2, 0)  # hess[j][k]: entry (j, k) of each triangle
    out = []
    for k in range(3):
        form = 0.0
        for j in range(3):
            form = form - hess[j][k] * (xi[j] * eta[k] - eta[j] * xi[k])
        out.append(form)
    return np.array(out)


# ---------------------------------------------------------------------------
# Array-native triangle kernel


@dataclass(frozen=True)
class TriangleTerms:
    """Output of :func:`triangle_kernel` for m triangles; fields that were not
    requested are None.  Node indices are those of ``values.ravel()``."""

    grads: Optional[np.ndarray]     # (3, m) slot gradients d1, d2, d3
    residual: Optional[np.ndarray]  # per node: scatter-add of d1 + d2 + d3
    hess: Optional[np.ndarray]      # (m, 3, 3) vertex-slot Hessians
    index: np.ndarray               # (3, m) int32 vertex indices

    @cached_property
    def triplets(self) -> Optional[tuple]:
        """(rows, cols, vals): the Hessians in COO form, built on first read."""
        return None if self.hess is None else _hessian_triplets(self.hess, self.index)


def _hessian_triplets(hess, idx) -> tuple:
    # Entry (a, b) of triangle t sits at (3a + b) * m + t of the raveled key,
    # and so do its column node idx[b] and its value in the (9, m) arrays below.
    # Sorting by key orders the triplets by (row node, row slot, column
    # slot), the order of a per-node stencil loop, so duplicate entries are
    # always summed in the same order.
    key = (idx[:, None, :] * 9 + np.arange(0, 9, 3, dtype=idx.dtype).reshape(3, 1, 1)
           + np.arange(3, dtype=idx.dtype).reshape(1, 3, 1)).ravel()
    order = np.argsort(key, kind="stable")
    return (key[order] // 9, np.tile(idx, (3, 1)).ravel()[order],
            np.ascontiguousarray(np.reshape(hess, (-1, 9)).T).ravel()[order])


def _triangle_jets(values, index, dt: float, dx: float) -> tuple:
    """(flat values, int32 index, (v, w, ubar)) of the triangles ``index`` of
    ``values``; ValueError names the slot of a non-finite vertex value."""
    flat = np.asarray(values, dtype=float).ravel()
    # 32-bit node indices keep the triplet arrays small.
    index = np.asarray(index, dtype=np.int32)
    u1, u2, u3 = u = flat[index]
    if not np.isfinite(u).all():
        raise ValueError(f"non-finite vertex value u{np.isfinite(u).all(axis=1).argmin() + 1}")
    return flat, index, ((u3 - u1) / dt, (u2 - u1) / dx, (u1 + u2 + u3) / 3.0)


def _action_sum(density: LagrangianDensity, values, index, dt: float, dx: float) -> float:
    """Sum of the triangle actions of ``index`` (as in :func:`triangle_kernel`).

    The density is called once on the jet arrays, each term is scaled as in
    :func:`eval_Ld` and checked the same way, and the terms are added from
    0.0 in triangle order (``np.cumsum``, not the pairwise ``np.sum``), so a
    quadratic density gives the per-triangle loop's sum bit for bit.
    """
    with np.errstate(all="ignore"):  # the finiteness check below reports it
        v, w, ubar = _triangle_jets(values, index, dt, dx)[2]
        terms = 0.5 * dt * dx * np.broadcast_to(density.value(v, w, ubar), v.shape)
    if not np.isfinite(terms).all():
        raise ValueError(f"density {density.name} produced a non-finite value")
    return float(np.cumsum(np.append(0.0, terms))[-1])


def triangle_kernel(density: LagrangianDensity, values, index, dt: float,
                    dx: float, *, gradient: bool = True,
                    hessian: bool = False) -> TriangleTerms:
    """Slot gradients, DEL residuals and Hessians of a set of triangles.

    ``index`` holds flat vertex indices into ``values.ravel()``, one row per
    slot (shape (3, m), see :func:`~mslab.jetmesh.triangle_index`).
    ``gradient`` asks for the slot gradients and the DEL residual vector,
    ``hessian`` for the vertex-slot Hessians and their COO triplets.  Jets
    are formed once, and ``partials``/``second_partials`` are called once on
    them (a density whose ``is_quadratic`` is set uses its constant Hessian).
    The residual is one scatter-add of all slots in slot order; no slot maps
    two triangles to one node, so each node adds d1 + d2 + d3 in that order.
    NaN/Inf raises ValueError, as in :func:`eval_Ld` and :func:`hess_Ld`;
    numpy warnings in the density calls are silenced, since that check reports
    them.
    """
    flat, index, (v, w, ubar) = _triangle_jets(values, index, dt, dx)
    grads = residual = hess = None
    if gradient:
        with np.errstate(all="ignore"):
            lv, lw, lu = density.partials(v, w, ubar)
        if not all(np.isfinite(p).all() for p in (lv, lw, lu)):
            raise ValueError(f"density {density.name} partials produced a non-finite value")
        grads = np.array(_slot_gradients(lv, lw, lu, dt, dx))
        residual = np.bincount(index.ravel(), weights=grads.ravel(), minlength=flat.size)
    if hessian:
        if density.is_quadratic:  # the same at every jet
            hess = np.broadcast_to(hess_Ld(density, JetTriple(0.0, 0.0, 0.0, dt, dx)),
                                   (len(v), 3, 3))
        else:
            with np.errstate(all="ignore"):
                h = np.broadcast_to(density.second_partials(v, w, ubar), (len(v), 3, 3))
            hess = _push_hessian(h, dt, dx, density.name)
    return TriangleTerms(grads, residual, hess, index)

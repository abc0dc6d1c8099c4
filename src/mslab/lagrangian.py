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
step-size tuning).  Every evaluation is checked for NaN/Inf.

:func:`triangle_kernel` evaluates the same terms for a whole set of
triangles at once, given as flat vertex indices into a node array: slot
gradients, their scatter-add into DEL residuals, vertex-slot Hessians and
their COO triplets, calling the density once on whole jet arrays.  The
per-triangle functions below are its one-triangle view and its reference:
they share the formulas, and tests hold the two to round-off agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import dual
from .jetmesh import JetTriple


class LagrangianDensity:
    """Base class: a named density with value/partials/second-partials."""

    name = "density"
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

    @property
    def couples_average(self) -> bool:
        """Whether the cell average enters (relevant for field-theory limits)."""
        return any(c != 0.0 for c in (self.uu, self.vu, self.wu))


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


@dataclass(frozen=True)
class CovectorAtTriple:
    """Vertex-slot gradient (d1, d2, d3) of the triangle action."""

    d1: float
    d2: float
    d3: float

    def as_tuple(self) -> tuple:
        return (self.d1, self.d2, self.d3)

    def pairing(self, tangent) -> float:
        x1, x2, x3 = tangent
        return self.d1 * x1 + self.d2 * x2 + self.d3 * x3

    def slot(self, k: int) -> float:
        return self.as_tuple()[k - 1]


def _check_finite(name, *vals):
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"{name} produced a non-finite value")


def _slot_gradient(lv, lw, lu, dt: float, dx: float) -> tuple:
    """Chain rule through the affine jet map, on scalars or arrays."""
    a = 0.5 * dt * dx
    return (a * (-lv / dt - lw / dx + lu / 3.0),
            a * (lw / dx + lu / 3.0),
            a * (lv / dt + lu / 3.0))


def eval_Ld(density: LagrangianDensity, triple: JetTriple) -> float:
    """Triangle action (dt*dx/2) * L(v, w, ubar)."""
    out = 0.5 * triple.dt * triple.dx * density.value(triple.v, triple.w, triple.ubar)
    out = float(out)
    _check_finite(f"density {density.name}", out)
    return out


def grad_Ld(density: LagrangianDensity, triple: JetTriple) -> CovectorAtTriple:
    """Vertex-slot gradient of the triangle action.

    Chain rule through the affine jet map: with A = dt*dx/2,

        d1 = A * (-Lv/dt - Lw/dx + Lu/3),
        d2 = A * ( Lw/dx          + Lu/3),
        d3 = A * ( Lv/dt          + Lu/3).
    """
    lv, lw, lu = (float(p) for p in density.partials(triple.v, triple.w, triple.ubar))
    _check_finite(f"density {density.name} partials", lv, lw, lu)
    return CovectorAtTriple(*_slot_gradient(lv, lw, lu, triple.dt, triple.dx))


@lru_cache(maxsize=64)
def _quadratic_hessian(coeffs: tuple, dt: float, dx: float):
    h = np.array([[coeffs[0], coeffs[3], coeffs[4]],
                  [coeffs[3], coeffs[1], coeffs[5]],
                  [coeffs[4], coeffs[5], coeffs[2]]])
    m = _push_hessian(h, dt, dx)
    m.setflags(write=False)
    return m

def _push_hessian(h, dt: float, dx: float):
    """Pull the (v, w, ubar) Hessian back to vertex slots and scale by area."""
    jac = np.array([[-1.0 / dt, 0.0, 1.0 / dt],
                    [-1.0 / dx, 1.0 / dx, 0.0],
                    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])
    return 0.5 * dt * dx * (jac.T @ h @ jac)


def hess_Ld(density: LagrangianDensity, triple: JetTriple):
    """Symmetric 3x3 vertex-slot Hessian of the triangle action."""
    if isinstance(density, QuadraticDensity):
        coeffs = (density.vv, density.ww, density.uu,
                  density.vw, density.vu, density.wu)
        return _quadratic_hessian(coeffs, triple.dt, triple.dx)
    h = np.asarray(density.second_partials(triple.v, triple.w, triple.ubar), dtype=float)
    if not np.isfinite(h).all():
        raise ValueError(f"density {density.name} produced a non-finite Hessian")
    return _push_hessian(h, triple.dt, triple.dx)


def theta_k(density: LagrangianDensity, triple: JetTriple, k: int, tangent) -> float:
    """Slot one-form: dLd/du_k times the k-th tangent component.

    The three slot one-forms add up to the full differential of the triangle
    action, so summing theta_k over k reproduces the directional derivative.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"vertex slot must be 1, 2 or 3, got {k}")
    grad = grad_Ld(density, triple)
    return grad.slot(k) * float(tangent[k - 1])


def omega_k(density: LagrangianDensity, triple: JetTriple, k: int, xi, eta) -> float:
    """Slot two-form from the antisymmetrised vertex Hessian.

    omega_k(xi, eta) = -sum_j M[j, k] * (xi_j * eta_k - eta_j * xi_k) with M
    the vertex-slot Hessian of the triangle action.  Bilinear and
    antisymmetric in (xi, eta); the sum over k vanishes identically.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"vertex slot must be 1, 2 or 3, got {k}")
    m = hess_Ld(density, triple)
    kk = k - 1
    xk, ek = float(xi[kk]), float(eta[kk])
    out = 0.0
    for j in range(3):
        out -= m[j, kk] * (float(xi[j]) * ek - float(eta[j]) * xk)
    return float(out)


# ---------------------------------------------------------------------------
# Array-native triangle kernel


class TriangleTerms(NamedTuple):
    """Output of :func:`triangle_kernel` for m triangles; fields that were not
    requested are None.  Node indices are those of ``values.ravel()``."""

    grads: Optional[np.ndarray]     # (3, m) slot gradients d1, d2, d3
    residual: Optional[np.ndarray]  # per node: scatter-add of d1 + d2 + d3
    hess: Optional[np.ndarray]      # (m, 3, 3) vertex-slot Hessians
    triplets: Optional[tuple]       # (rows, cols, vals): the Hessians in COO form


def _hessian_triplets(hess, index) -> tuple:
    idx = np.stack(index)
    m = idx.shape[1]
    # Entry (a, b) of triangle t sits at (3a + b) * m + t of the raveled key.
    # Sorting by key orders the triplets by (row node, row slot, column
    # slot), the order of a per-node stencil loop, so duplicate entries are
    # always summed in the same order.
    key = (idx[:, None, :] * 9 + np.arange(0, 9, 3, dtype=idx.dtype).reshape(3, 1, 1)
           + np.arange(3, dtype=idx.dtype).reshape(1, 3, 1)).ravel()
    order = np.argsort(key, kind="stable")
    slot, tri = np.divmod(order, m)
    return key[order] // 9, idx[slot % 3, tri], hess[tri, slot // 3, slot % 3]


def triangle_kernel(density: LagrangianDensity, values, index, dt: float,
                    dx: float, *, gradient: bool = True,
                    hessian: bool = False) -> TriangleTerms:
    """Slot gradients, DEL residuals and Hessians of a set of triangles.

    ``index`` holds three flat vertex-index arrays (i1, i2, i3) into
    ``values.ravel()``, one entry per triangle (see
    :func:`~mslab.jetmesh.triangle_index`).  ``gradient`` asks for the slot
    gradients and the DEL residual vector, ``hessian`` for the vertex-slot
    Hessians and their COO triplets.  Jets are formed on whole arrays once,
    and ``partials``/``second_partials`` are called once on them (quadratic
    densities use their constant Hessian).  NaN/Inf raises ValueError, as in
    the per-triangle functions; numpy warnings in the density calls are
    silenced, since that check reports them.
    """
    flat = np.asarray(values, dtype=float).ravel()
    # 32-bit node indices keep the triplet arrays small.
    index = tuple(np.asarray(ix, dtype=np.int32) for ix in index)
    u1, u2, u3 = (flat[ix] for ix in index)
    for name, u in (("u1", u1), ("u2", u2), ("u3", u3)):
        if not np.isfinite(u).all():
            raise ValueError(f"non-finite vertex value {name}")
    v, w, ubar = (u3 - u1) / dt, (u2 - u1) / dx, (u1 + u2 + u3) / 3.0

    grads = residual = hess = triplets = None
    if gradient:
        with np.errstate(all="ignore"):
            lv, lw, lu = density.partials(v, w, ubar)
        if not all(np.isfinite(p).all() for p in (lv, lw, lu)):
            raise ValueError(f"density {density.name} partials produced a non-finite value")
        grads = np.array(_slot_gradient(lv, lw, lu, dt, dx))
        b1, b2, b3 = (np.bincount(ix, weights=d, minlength=flat.size)
                      for ix, d in zip(index, grads))
        residual = b1 + b2 + b3
    if hessian:
        if isinstance(density, QuadraticDensity):  # the same at every jet
            hess = np.broadcast_to(hess_Ld(density, JetTriple(0.0, 0.0, 0.0, dt, dx)),
                                   (len(u1), 3, 3))
        else:
            with np.errstate(all="ignore"):
                h = np.broadcast_to(density.second_partials(v, w, ubar), (len(u1), 3, 3))
            if not np.isfinite(h).all():
                raise ValueError(f"density {density.name} produced a non-finite Hessian")
            hess = _push_hessian(h, dt, dx)
        triplets = _hessian_triplets(hess, index)
    return TriangleTerms(grads, residual, hess, triplets)

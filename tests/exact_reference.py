"""Exact rational reference for polynomial densities on rectangle regions.

For a polynomial density every quantity the solvers compute is a rational
function of the float inputs: dt, dx, the coefficients and the data.
Converted with ``fractions.Fraction`` (exact for a float), they give the
exact value, so a float route can be held to a stated rounding bound
instead of to another float route.  Nothing here calls into ``mslab``: the
jet map, the triangle layout and the node sets are written out again.

The triangle anchored at node (n, i) has slots (n, i), (n, i + 1) and
(n + 1, i), and jets v = (u3 - u1) / dt, w = (u2 - u1) / dx and
ubar = (u1 + u2 + u3) / 3; its action is dt dx / 2 times L(v, w, ubar).

K, the Dirichlet solve and ||K_ii^-1||_1 are for a ``QuadraticDensity``,
read from its coefficient fields.  Elimination is Gauss-Jordan on dense
lists, so keep regions at 6 x 6 or below (about 0.2 s there).  The
per-triangle terms (slot gradients, DEL residuals, vertex-slot Hessians,
slot two-forms, actions) are for any polynomial density, given as its
monomials: {(a, b, c): coefficient} for coefficient * v^a w^b ubar^c.

With ``magnitude``, a function evaluates the same formula with every input
replaced by its absolute value and every subtraction by an addition: the
sum of the absolute values of its terms, the scale a rounding bound is
stated against.
"""

from fractions import Fraction
from math import prod


def coefficient_matrix(density) -> list:
    """The (v, w, ubar) Hessian of a ``QuadraticDensity``, from its fields."""
    vv, ww, uu, vw, vu, wu = (Fraction(getattr(density, key))
                              for key in ("vv", "ww", "uu", "vw", "vu", "wu"))
    return [[vv, vw, vu], [vw, ww, wu], [vu, wu, uu]]


def _pull_back(c, dt: float, dx: float, magnitude: bool) -> list:
    """area * jac^T c jac for the (v, w, ubar) Hessian ``c``."""
    dt, dx = Fraction(dt), Fraction(dx)
    third = Fraction(1, 3)
    jac = [[-1 / dt, Fraction(0), 1 / dt], [-1 / dx, 1 / dx, Fraction(0)], [third] * 3]
    term = abs if magnitude else (lambda x: x)
    area = dt * dx / 2
    return [[area * sum(term(jac[j][a] * c[j][k] * jac[k][b]) for j in range(3) for k in range(3))
             for b in range(3)] for a in range(3)]


def triangle_hessian(density, dt: float, dx: float, magnitude: bool = False) -> list:
    """The exact 3 x 3 vertex-slot Hessian of one triangle's action of a
    ``QuadraticDensity``, area * jac^T C jac."""
    return _pull_back(coefficient_matrix(density), dt, dx, magnitude)


def triangles(region) -> list:
    """The vertex nodes, in slot order, of each triangle of a ``RectRegion``."""
    return [((n, i), (n, i + 1), (n + 1, i))
            for n in range(region.n0, region.n0 + region.nt)
            for i in range(region.i0, region.i0 + region.nx)]


def interior(region) -> list:
    return [(n, i) for n in range(region.n0 + 1, region.n0 + region.nt)
            for i in range(region.i0 + 1, region.i0 + region.nx)]


def boundary(region) -> list:
    inside = set(interior(region))
    return [(n, i) for n in range(region.n0, region.n0 + region.nt + 1)
            for i in range(region.i0, region.i0 + region.nx + 1) if (n, i) not in inside]


def hessian_operator(density, region, dt: float, dx: float, magnitude: bool = False) -> dict:
    """K as {(row node, column node): exact entry}, summed over the region's
    triangles; a pair no triangle couples is absent.  ``magnitude`` sums the
    absolute values of every term instead (see :func:`triangle_hessian`)."""
    h = triangle_hessian(density, dt, dx, magnitude)
    k = {}
    for nodes in triangles(region):
        for a, row in enumerate(nodes):
            for b, col in enumerate(nodes):
                k[row, col] = k.get((row, col), Fraction(0)) + h[a][b]
    return k


def solve(matrix: list, columns: list) -> list:
    """X with matrix @ X = columns, by Gauss-Jordan elimination on copies
    (``columns`` is a list of right-hand sides, each a list)."""
    n = len(matrix)
    rows = [list(matrix[r]) + [col[r] for col in columns] for r in range(n)]
    for p in range(n):
        pivot = next(r for r in range(p, n) if rows[r][p] != 0)
        rows[p], rows[pivot] = rows[pivot], rows[p]
        inv = 1 / rows[p][p]
        rows[p] = [x * inv for x in rows[p]]
        for r in range(n):
            if r != p and rows[r][p] != 0:
                f = rows[r][p]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[p])]
    return [[rows[r][n + c] for r in range(n)] for c in range(len(columns))]


def interior_block(density, region, dt: float, dx: float) -> tuple:
    """(interior nodes, K_ii as a dense list, K)."""
    k = hessian_operator(density, region, dt, dx)
    nodes = interior(region)
    return nodes, [[k.get((r, c), Fraction(0)) for c in nodes] for r in nodes], k


def dirichlet_solve(density, region, dt: float, dx: float, data: dict) -> dict:
    """The exact interior values of the DEL solution with Dirichlet values
    ``data`` ({boundary node: float}): K_ii x = -K_ib phi."""
    nodes, k_ii, k = interior_block(density, region, dt, dx)
    rhs = [-sum(k.get((r, b), Fraction(0)) * Fraction(v) for b, v in data.items())
           for r in nodes]
    return dict(zip(nodes, solve(k_ii, [rhs])[0]))


def inverse_one_norm(density, region, dt: float, dx: float) -> Fraction:
    """The exact ||K_ii^-1||_1, the largest absolute column sum of the inverse."""
    nodes, k_ii, _ = interior_block(density, region, dt, dx)
    unit = [[Fraction(int(r == c)) for r in range(len(nodes))] for c in range(len(nodes))]
    return max(sum(abs(x) for x in column) for column in solve(k_ii, unit))


# ---------------------------------------------------------------------------
# Polynomial densities: one triangle, and sums over a region


def _sign(magnitude: bool) -> int:
    return 1 if magnitude else -1


def _exact(values, magnitude: bool) -> list:
    return [abs(Fraction(x)) if magnitude else Fraction(x) for x in values]


def derivative(poly: dict, axis: int) -> dict:
    """The monomials of d poly / d (v, w, ubar)[axis]."""
    out = {}
    for powers, coefficient in poly.items():
        if powers[axis]:
            lower = tuple(p - (a == axis) for a, p in enumerate(powers))
            out[lower] = out.get(lower, Fraction(0)) + Fraction(coefficient) * powers[axis]
    return out


def evaluate(poly: dict, point, magnitude: bool = False) -> Fraction:
    """poly at the exact ``point`` (v, w, ubar); with ``magnitude``, |coefficient|
    times the monomial (``point`` then holds magnitudes)."""
    return sum((_exact([c], magnitude)[0] * prod(x ** p for x, p in zip(point, powers))
                for powers, c in poly.items()), Fraction(0))


def jets(u, dt: float, dx: float, magnitude: bool = False) -> tuple:
    """(v, w, ubar) of the vertex values ``u`` = (u1, u2, u3)."""
    u1, u2, u3 = _exact(u, magnitude)
    sign = _sign(magnitude)
    return (u3 + sign * u1) / Fraction(dt), (u2 + sign * u1) / Fraction(dx), (u1 + u2 + u3) / 3


def slot_gradient(poly: dict, u, dt: float, dx: float, magnitude: bool = False) -> list:
    """[d1, d2, d3], the vertex-slot gradient of one triangle's action:
    area * (-Lv/dt - Lw/dx + Lu/3, Lw/dx + Lu/3, Lv/dt + Lu/3)."""
    point = jets(u, dt, dx, magnitude)
    lv, lw, lu = (evaluate(derivative(poly, axis), point, magnitude) for axis in range(3))
    dt, dx = Fraction(dt), Fraction(dx)
    area = dt * dx / 2
    return [area * (_sign(magnitude) * (lv / dt + lw / dx) + lu / 3),
            area * (lw / dx + lu / 3), area * (lv / dt + lu / 3)]


def slot_hessian(poly: dict, u, dt: float, dx: float, magnitude: bool = False) -> list:
    """The 3 x 3 vertex-slot Hessian of one triangle's action: the (v, w, ubar)
    Hessian of ``poly`` at the jets, pulled back to the slots."""
    point = jets(u, dt, dx, magnitude)
    c = [[evaluate(derivative(derivative(poly, a), b), point, magnitude) for b in range(3)]
         for a in range(3)]
    return _pull_back(c, dt, dx, magnitude)


def slot_two_forms(hessian: list, xi, eta, magnitude: bool = False) -> list:
    """[omega_1, omega_2, omega_3](xi, eta) of one triangle from its slot
    Hessian: omega_k = -sum_j M[j][k] (xi_j eta_k - eta_j xi_k)."""
    xi, eta = _exact(xi, magnitude), _exact(eta, magnitude)
    sign = _sign(magnitude)
    return [sign * sum(hessian[j][k] * (xi[j] * eta[k] + sign * eta[j] * xi[k]) for j in range(3))
            for k in range(3)]


def _vertex_values(values, nodes) -> list:
    return [values[n][i] for n, i in nodes]


def residuals(poly: dict, values, region, dt: float, dx: float,
              magnitude: bool = False) -> dict:
    """{node: sum of the slot gradients there} over the triangles of the
    region, at every node of it; at an interior node, its DEL residual.
    ``values[n][i]`` is the value at node (n, i)."""
    out = {}
    for nodes in triangles(region):
        grads = slot_gradient(poly, _vertex_values(values, nodes), dt, dx, magnitude)
        for node, d in zip(nodes, grads):
            out[node] = out.get(node, Fraction(0)) + d
    return out


def action_sum(poly: dict, values, region, dt: float, dx: float,
               magnitude: bool = False) -> Fraction:
    """The sum of the triangle actions dt dx / 2 * L over the region."""
    area = Fraction(dt) * Fraction(dx) / 2
    return sum((area * evaluate(poly, jets(_vertex_values(values, nodes), dt, dx, magnitude),
                                magnitude) for nodes in triangles(region)), Fraction(0))

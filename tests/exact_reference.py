"""Exact rational reference for quadratic densities on rectangle regions.

For a quadratic density every quantity the solvers compute is a rational
function of the float inputs: dt, dx, the six coefficients and the data.
Converted with ``fractions.Fraction`` (exact for a float), they give the
exact value, so a float route can be held to a stated rounding bound
instead of to another float route.  Nothing here calls into ``mslab``: the
jet map, the triangle layout and the node sets are written out again.

The triangle anchored at node (n, i) has slots (n, i), (n, i + 1) and
(n + 1, i), and jets v = (u3 - u1) / dt, w = (u2 - u1) / dx and
ubar = (u1 + u2 + u3) / 3; its action is dt dx / 2 times L(v, w, ubar).
Elimination is Gauss-Jordan on dense lists, so keep regions at 6 x 6 or
below (about 0.2 s there).
"""

from fractions import Fraction


def coefficient_matrix(density) -> list:
    """The (v, w, ubar) Hessian of a ``QuadraticDensity``, from its fields."""
    vv, ww, uu, vw, vu, wu = (Fraction(getattr(density, key))
                              for key in ("vv", "ww", "uu", "vw", "vu", "wu"))
    return [[vv, vw, vu], [vw, ww, wu], [vu, wu, uu]]


def triangle_hessian(density, dt: float, dx: float, magnitude: bool = False) -> list:
    """The exact 3 x 3 vertex-slot Hessian of one triangle's action,
    area * jac^T C jac; with ``magnitude``, the same sums of the absolute
    values of their terms, the scale a rounding bound is stated against."""
    dt, dx = Fraction(dt), Fraction(dx)
    third = Fraction(1, 3)
    jac = [[-1 / dt, Fraction(0), 1 / dt], [-1 / dx, 1 / dx, Fraction(0)], [third] * 3]
    c = coefficient_matrix(density)
    term = abs if magnitude else (lambda x: x)
    area = dt * dx / 2
    return [[area * sum(term(jac[j][a] * c[j][k] * jac[k][b]) for j in range(3) for k in range(3))
             for b in range(3)] for a in range(3)]


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

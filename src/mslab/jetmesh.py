"""Space-time mesh, discrete fields and first-jet data on a triangulated grid.

The domain is a uniform rectangular grid in one space and one time dimension:
node (n, i) sits at (t, x) = (n*dt, i*dx) with 0 <= n <= nt, 0 <= i <= nx.
Each grid cell carries exactly one triangle,

    triangle (n, i) = ((n, i), (n, i+1), (n+1, i)),

so every interior node belongs to exactly three triangles (once in each
vertex slot).  The first-jet data of a field on a triangle is the triple of
vertex values together with the difference quotients

    v = (u3 - u1) / dt        (time slot),
    w = (u2 - u1) / dx        (space slot),
    ubar = (u1 + u2 + u3) / 3 (cell average),

which is what the Lagrangian densities consume.

Periodic runs treat all nx+1 stored columns as distinct ring sites with index
arithmetic mod (nx+1); column nx is a neighbour of column 0, not a copy of it.

Field values are validated to be finite on construction; NaN/Inf never
propagates silently.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

Node = tuple  # (n, i) integer pair


def _check_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def _integer(name: str, value) -> int:
    """``int(value)``; ValueError if that would drop a fractional part."""
    if not math.isfinite(float(value)) or int(value) != float(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class QuadMesh:
    """Uniform grid with nt time cells and nx space cells.

    ``dt``/``dx`` are the cell sizes; there are (nt+1)*(nx+1) nodes.  The
    aspect ratio dt/dx plays the role of a Courant number for the unit-speed
    wave density.
    """

    dt: float
    dx: float
    nt: int
    nx: int

    def __post_init__(self) -> None:
        _check_positive("dt", self.dt)
        _check_positive("dx", self.dx)
        for name, size in (("nt", self.nt), ("nx", self.nx)):
            if int(size) != size or size < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {size!r}")

    @property
    def aspect_ratio(self) -> float:
        """dt/dx; the three-triangle point stencil degenerates as this -> 1."""
        return self.dt / self.dx

    @property
    def shape(self) -> tuple:
        """(number of time levels, number of space columns) = (nt+1, nx+1)."""
        return (self.nt + 1, self.nx + 1)

    def node_t(self, n: int) -> float:
        return n * self.dt

    def node_x(self, i: int) -> float:
        return i * self.dx

    def triangles(self) -> Iterator["TriangleIndex"]:
        """All triangles, row-major."""
        for n in range(self.nt):
            for i in range(self.nx):
                yield TriangleIndex(n, i)


def build_mesh(dt: float, dx: float, nt: int, nx: int) -> QuadMesh:
    """Construct a validated mesh (see :class:`QuadMesh`)."""
    return QuadMesh(dt=float(dt), dx=float(dx), nt=_integer("nt", nt),
                    nx=_integer("nx", nx))


@dataclass(frozen=True)
class TriangleIndex:
    """Triangle anchored at node (n, i); vertices (n,i), (n,i+1), (n+1,i)."""

    n: int
    i: int

    @property
    def vertices(self) -> tuple:
        return ((self.n, self.i), (self.n, self.i + 1), (self.n + 1, self.i))

    def fits(self, mesh: QuadMesh) -> bool:
        return 0 <= self.n < mesh.nt and 0 <= self.i < mesh.nx


@dataclass(frozen=True)
class JetTriple:
    """Vertex values of one triangle plus the cell sizes they were read on."""

    u1: float
    u2: float
    u3: float
    dt: float
    dx: float

    def __post_init__(self) -> None:
        for name in ("u1", "u2", "u3"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"non-finite vertex value {name}={val!r}")
        _check_positive("dt", self.dt)
        _check_positive("dx", self.dx)

    @property
    def v(self) -> float:
        """Forward time difference quotient (u3 - u1)/dt."""
        return (self.u3 - self.u1) / self.dt

    @property
    def w(self) -> float:
        """Forward space difference quotient (u2 - u1)/dx."""
        return (self.u2 - self.u1) / self.dx

    @property
    def ubar(self) -> float:
        """Cell average (u1 + u2 + u3)/3."""
        return (self.u1 + self.u2 + self.u3) / 3.0


class DiscreteField:
    """Real-valued node function on a :class:`QuadMesh` (immutable).

    ``values[n, i]`` is the value at node (n, i).  The backing array is a
    read-only copy; ``with_value`` returns a modified copy so fields can be
    shared safely between reports.
    """

    __slots__ = ("mesh", "values")

    def __init__(self, mesh: QuadMesh, values) -> None:
        arr = np.array(values, dtype=float)
        if arr.shape != mesh.shape:
            raise ValueError(f"field shape {arr.shape} does not match mesh {mesh.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("field contains NaN/Inf values")
        arr.setflags(write=False)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteField is immutable; use with_value")

    @classmethod
    def zeros(cls, mesh: QuadMesh) -> "DiscreteField":
        return cls(mesh, np.zeros(mesh.shape))

    @classmethod
    def from_callable(cls, mesh: QuadMesh, fn: Callable[[float, float], float]) -> "DiscreteField":
        """Sample ``fn(t, x)`` at the nodes."""
        t = mesh.dt * np.arange(mesh.nt + 1)[:, None]
        x = mesh.dx * np.arange(mesh.nx + 1)[None, :]
        return cls(mesh, np.vectorize(fn)(t, x))

    def __getitem__(self, node: Node) -> float:
        return float(self.values[node])

    def with_value(self, n: int, i: int, value: float) -> "DiscreteField":
        arr = self.values.copy()
        arr[n, i] = value
        return DiscreteField(self.mesh, arr)


def jet_extension(field: DiscreteField, tri: TriangleIndex, periodic: bool = False) -> JetTriple:
    """First-jet data of ``field`` on ``tri``.

    With ``periodic`` the space index wraps mod (nx+1) over the ring of
    distinct columns; otherwise the triangle must fit inside the mesh.
    """
    mesh, n, ncols = field.mesh, tri.n, field.mesh.nx + 1
    if periodic and not 0 <= n < mesh.nt:
        raise ValueError(f"triangle {tri} outside time range of mesh")
    if not periodic and not tri.fits(mesh):
        raise ValueError(f"triangle {tri} does not fit in mesh with shape {mesh.shape}")
    i, vals = tri.i % ncols, field.values  # a fitting triangle never wraps
    return JetTriple(float(vals[n, i]), float(vals[n, (i + 1) % ncols]),
                     float(vals[n + 1, i]), mesh.dt, mesh.dx)


# ---------------------------------------------------------------------------
# Regions


@dataclass(frozen=True)
class RectRegion:
    """Sub-grid of nt x nx cells anchored at node (n0, i0).

    Nodes run over n0..n0+nt, i0..i0+nx.  Note the single-orientation
    triangulation: the top-right corner node belongs to no triangle of the
    region, so its value never enters the region action.
    """

    n0: int
    i0: int
    nt: int
    nx: int

    def __post_init__(self) -> None:
        if self.n0 < 0 or self.i0 < 0:
            raise ValueError("region anchor must be non-negative")
        if self.nt < 1 or self.nx < 1:
            raise ValueError("region must span at least one cell in each direction")

    @property
    def n1(self) -> int:
        return self.n0 + self.nt

    @property
    def i1(self) -> int:
        return self.i0 + self.nx

    def fits(self, mesh: QuadMesh) -> bool:
        return self.n1 <= mesh.nt and self.i1 <= mesh.nx


@dataclass(frozen=True)
class Patch3Region:
    """The three triangles sharing interior node (n, i) as a vertex."""

    n: int
    i: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.i < 1:
            raise ValueError("patch3 centre must have n >= 1 and i >= 1")

    def fits(self, mesh: QuadMesh) -> bool:
        return self.n + 1 <= mesh.nt and self.i + 1 <= mesh.nx


Region = Union[RectRegion, Patch3Region]


def check_region_fits(region: Region, mesh: QuadMesh) -> None:
    """Raise ValueError unless every triangle of ``region`` lies on ``mesh``."""
    if not region.fits(mesh):
        raise ValueError(f"region {region} does not fit mesh with shape {mesh.shape}")


def region_triangles(region: Region) -> list:
    """Triangles making up the region (row-major for rectangles)."""
    if isinstance(region, RectRegion):
        return [TriangleIndex(n, i)
                for n in range(region.n0, region.n1)
                for i in range(region.i0, region.i1)]
    if isinstance(region, Patch3Region):
        n, i = region.n, region.i
        return [TriangleIndex(n, i), TriangleIndex(n, i - 1), TriangleIndex(n - 1, i)]
    raise TypeError(f"unknown region type {type(region).__name__}")


def triangle_index(rows, cols, ncols: int, periodic: bool = False) -> tuple:
    """Flat vertex indices (i1, i2, i3) of the triangles anchored at (rows, cols).

    The indices address ``values.ravel()`` of a node array with ``ncols``
    columns.  ``rows`` and ``cols`` broadcast against each other; with
    ``periodic`` the second vertex wraps around the ring of columns.
    """
    rows, cols = (a.ravel() for a in np.broadcast_arrays(rows, cols))
    right = (cols + 1) % ncols if periodic else cols + 1
    return rows * ncols + cols, rows * ncols + right, (rows + 1) * ncols + cols


def region_index(region: Region, ncols: int) -> tuple:
    """:func:`triangle_index` of the region's triangles, in the order of
    :func:`region_triangles`."""
    if isinstance(region, RectRegion):
        return triangle_index(np.arange(region.n0, region.n1)[:, None],
                              np.arange(region.i0, region.i1)[None, :], ncols)
    if isinstance(region, Patch3Region):
        n, i = region.n, region.i
        return triangle_index(np.array([n, n, n - 1]), np.array([i, i - 1, i]), ncols)
    raise TypeError(f"unknown region type {type(region).__name__}")


def node_index(nodes, ncols: int) -> np.ndarray:
    """Flat indices of (n, i) nodes in a node array with ``ncols`` columns."""
    arr = np.asarray(nodes, dtype=np.intp).reshape(-1, 2)
    return arr[:, 0] * ncols + arr[:, 1]


def interior_nodes(region: Region) -> list:
    """Nodes where the discrete Euler-Lagrange equations are imposed."""
    if isinstance(region, RectRegion):
        return [(n, i)
                for n in range(region.n0 + 1, region.n1)
                for i in range(region.i0 + 1, region.i1)]
    if isinstance(region, Patch3Region):
        return [(region.n, region.i)]
    raise TypeError(f"unknown region type {type(region).__name__}")


def boundary_nodes(region: Region) -> list:
    """Boundary nodes, each exactly once, counterclockwise.

    Orientation is counterclockwise in the plane with x horizontal and t
    vertical.  Rectangles start at the minimal corner (n0, i0) and run along
    the bottom row, up the right column, back along the top row and down the
    left column.  The three-triangle patch starts at (n, i+1) and walks the
    hexagonal link of the centre node.
    """
    if isinstance(region, RectRegion):
        n0, n1, i0, i1 = region.n0, region.n1, region.i0, region.i1
        out = [(n0, i) for i in range(i0, i1 + 1)]
        out += [(n, i1) for n in range(n0 + 1, n1 + 1)]
        out += [(n1, i) for i in range(i1 - 1, i0 - 1, -1)]
        out += [(n, i0) for n in range(n1 - 1, n0, -1)]
        return out
    if isinstance(region, Patch3Region):
        n, i = region.n, region.i
        return [(n, i + 1), (n + 1, i), (n + 1, i - 1),
                (n, i - 1), (n - 1, i), (n - 1, i + 1)]
    raise TypeError(f"unknown region type {type(region).__name__}")


def region_nodes(region: Region) -> list:
    """All nodes of the region (boundary + interior), row-major."""
    if isinstance(region, RectRegion):
        return [(n, i)
                for n in range(region.n0, region.n1 + 1)
                for i in range(region.i0, region.i1 + 1)]
    if isinstance(region, Patch3Region):
        return boundary_nodes(region) + [(region.n, region.i)]
    raise TypeError(f"unknown region type {type(region).__name__}")


# ---------------------------------------------------------------------------
# Boundary data


class BoundaryData:
    """Ordered (node, value) data on the boundary of a region."""

    __slots__ = ("region", "nodes", "values")

    def __init__(self, region: Region, values: Sequence[float]) -> None:
        nodes = boundary_nodes(region)
        arr = np.array(values, dtype=float)
        if arr.shape != (len(nodes),):
            raise ValueError(
                f"expected {len(nodes)} boundary values for {region}, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("boundary data contains NaN/Inf values")
        arr.setflags(write=False)
        self.region = region
        self.nodes = tuple(nodes)
        self.values = arr

    @classmethod
    def from_field(cls, field: DiscreteField, region: Region) -> "BoundaryData":
        nodes = boundary_nodes(region)
        return cls(region, [field[nd] for nd in nodes])

    @classmethod
    def from_mapping(cls, region: Region, mapping: Mapping[Node, float]) -> "BoundaryData":
        nodes = boundary_nodes(region)
        missing = [nd for nd in nodes if nd not in mapping]
        if missing:
            raise ValueError(f"boundary values missing for nodes {missing}")
        extra = set(mapping) - set(nodes)
        if extra:
            raise ValueError(f"values given for non-boundary nodes {sorted(extra)}")
        return cls(region, [mapping[nd] for nd in nodes])

    def as_mapping(self) -> dict:
        return {nd: float(val) for nd, val in zip(self.nodes, self.values)}

    def perturbed(self, index: int, delta: float) -> "BoundaryData":
        vals = self.values.copy()
        vals[index] += delta
        return BoundaryData(self.region, vals)


# ---------------------------------------------------------------------------
# External formats


def field_to_csv(field: DiscreteField, path) -> None:
    """Write a field as CSV with header ``n,i,u``, one row per node, row-major;
    values are ``repr`` strings (exact round trip), lines end in CRLF."""
    nodes = itertools.product(range(field.mesh.nt + 1), range(field.mesh.nx + 1))
    rows = zip(nodes, field.values.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write("n,i,u\r\n" + "".join(f"{n},{i},{u!r}\r\n" for (n, i), u in rows))


def field_from_csv(mesh: QuadMesh, path) -> DiscreteField:
    """Read a field written by :func:`field_to_csv`; every node must appear once."""
    arr = np.zeros(mesh.shape)
    seen = np.zeros(mesh.shape, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["n", "i", "u"]:
            raise ValueError(f"expected CSV header 'n,i,u', got {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"line {reader.line_num}: expected 3 fields, got {len(row)}")
            n, i, u = int(row[0]), int(row[1]), float(row[2])
            if not (0 <= n <= mesh.nt and 0 <= i <= mesh.nx):
                raise ValueError(f"node ({n}, {i}) outside mesh with shape {mesh.shape}")
            if seen[n, i]:
                raise ValueError(f"node ({n}, {i}) appears more than once in the CSV")
            if not np.isfinite(u):
                raise ValueError(f"non-finite value {u!r} at node ({n}, {i})")
            arr[n, i] = u
            seen[n, i] = True
    if not seen.all():
        raise ValueError("CSV does not cover every mesh node")
    return DiscreteField(mesh, arr)


def region_to_json(region: Region) -> dict:
    """JSON-able description of a region."""
    if isinstance(region, RectRegion):
        return {"kind": "rect", "n0": region.n0, "i0": region.i0,
                "nt": region.nt, "nx": region.nx}
    if isinstance(region, Patch3Region):
        return {"kind": "patch3", "n": region.n, "i": region.i}
    raise TypeError(f"unknown region type {type(region).__name__}")


def parse_region(obj) -> Region:
    """Inverse of :func:`region_to_json`; accepts a dict or a JSON string."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"region description must be a dict with a 'kind', got {obj!r}")
    kind = obj["kind"]
    fields = {k: v for k, v in obj.items() if k != "kind"}
    if kind == "rect":
        expected = {"n0", "i0", "nt", "nx"}
        if set(fields) != expected:
            raise ValueError(f"rect region needs keys {sorted(expected)}, got {sorted(fields)}")
        return RectRegion(*(_integer(k, fields[k]) for k in ("n0", "i0", "nt", "nx")))
    if kind == "patch3":
        expected = {"n", "i"}
        if set(fields) != expected:
            raise ValueError(f"patch3 region needs keys {sorted(expected)}, got {sorted(fields)}")
        return Patch3Region(_integer("n", fields["n"]), _integer("i", fields["i"]))
    raise ValueError(f"unknown region kind {kind!r}")

import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import (
    BoundaryData,
    DiscreteField,
    JetTriple,
    Patch3Region,
    RectRegion,
    TriangleIndex,
    boundary_nodes,
    build_mesh,
    field_from_csv,
    field_to_csv,
    interior_index,
    interior_nodes,
    jet_extension,
    node_index,
    parse_region,
    region_index,
    region_nodes,
    region_to_json,
    region_triangles,
)

REGIONS = st.one_of(
    st.builds(RectRegion, st.integers(0, 5), st.integers(0, 5), st.integers(1, 8),
              st.integers(1, 8)),
    st.builds(Patch3Region, st.integers(1, 8), st.integers(1, 8)))


@pytest.fixture
def mesh():
    return build_mesh(dt=0.5, dx=1.0, nt=4, nx=5)


class TestQuadMesh:
    def test_basic_properties(self, mesh):
        assert mesh.shape == (5, 6)
        assert mesh.aspect_ratio == pytest.approx(0.5)
        assert mesh.node_t(3) == pytest.approx(1.5)
        assert mesh.node_x(2) == pytest.approx(2.0)

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0, dx=1.0, nt=2, nx=2),
        dict(dt=1.0, dx=-1.0, nt=2, nx=2),
        dict(dt=1.0, dx=1.0, nt=0, nx=2),
        dict(dt=float("nan"), dx=1.0, nt=2, nx=2),
        dict(dt=0.1, dx=0.1, nt=8.7, nx=4),
        dict(dt=0.1, dx=0.1, nt=8, nx=4.2),
        dict(dt=0.1, dx=0.1, nt=float("inf"), nx=4),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            build_mesh(**kwargs)

    def test_accepts_integral_floats(self):
        assert build_mesh(0.1, 0.1, 8.0, 4.0).shape == (9, 5)

    def test_one_triangle_per_cell(self, mesh):
        tris = list(mesh.triangles())
        assert len(tris) == mesh.nt * mesh.nx

    def test_interior_node_in_exactly_three_triangles(self, mesh):
        node = (2, 3)
        hits = [(tri, tri.vertices.index(node)) for tri in mesh.triangles()
                if node in tri.vertices]
        assert len(hits) == 3
        anchors = {tri.vertices[0]: slot for tri, slot in hits}
        assert anchors == {(2, 3): 0, (2, 2): 1, (1, 3): 2}


class TestTriangleIndex:
    def test_vertices(self):
        tri = TriangleIndex(1, 2)
        assert tri.vertices == ((1, 2), (1, 3), (2, 2))

    def test_fits(self, mesh):
        assert TriangleIndex(3, 4).fits(mesh)
        assert not TriangleIndex(4, 0).fits(mesh)
        assert not TriangleIndex(0, 5).fits(mesh)


class TestJetTriple:
    def test_frozen_example(self):
        # Forward differences on u = (0, 1.25, 0.75) with unit spacings.
        jet = JetTriple(0.0, 1.25, 0.75, dt=1.0, dx=1.0)
        assert jet.v == pytest.approx(0.75)
        assert jet.w == pytest.approx(1.25)
        assert jet.ubar == pytest.approx(2.0 / 3.0)

    def test_spacing_scaling(self):
        jet = JetTriple(1.0, 2.0, 3.0, dt=0.5, dx=0.25)
        assert jet.v == pytest.approx((3.0 - 1.0) / 0.5)
        assert jet.w == pytest.approx((2.0 - 1.0) / 0.25)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            JetTriple(float("nan"), 0.0, 0.0, dt=1.0, dx=1.0)

    # A valid triple passes one combined test; every refusal is decided by
    # the checks one by one, u1, u2, u3, dt, dx, each with its own message.
    NONFINITE = (float("nan"), float("inf"), float("-inf"), np.float64("nan"))
    NOT_A_STEP = (0.0, -0.0, -1.0, -5e-324, float("nan"), float("inf"), float("-inf"))

    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("bad", NONFINITE)
    def test_nonfinite_vertex_value_is_named(self, slot, bad):
        values = [0.5, -0.25, 1.0]
        values[slot] = bad
        message = f"non-finite vertex value u{slot + 1}={bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            JetTriple(*values, dt=0.5, dx=0.25)

    @pytest.mark.parametrize("name", ("dt", "dx"))
    @pytest.mark.parametrize("bad", NOT_A_STEP)
    def test_bad_step_is_named(self, name, bad):
        steps = {"dt": 0.5, "dx": 0.25, name: bad}
        message = f"{name} must be a positive finite number, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            JetTriple(0.5, -0.25, 1.0, **steps)

    @pytest.mark.parametrize("args,message", [
        ((float("inf"), float("nan"), float("-inf"), 0.0, float("nan")),
         "non-finite vertex value u1=inf"),
        ((0.0, float("-inf"), float("nan"), -1.0, 0.0), "non-finite vertex value u2=-inf"),
        ((0.0, 1.0, float("nan"), float("inf"), 0.0), "non-finite vertex value u3=nan"),
        ((0.0, 1.0, 2.0, float("nan"), -1.0), "dt must be a positive finite number, got nan"),
        ((0.0, 1.0, 2.0, 1.0, -0.0), "dx must be a positive finite number, got -0.0"),
    ])
    def test_first_refusal_wins(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            JetTriple(*args)

    def test_extreme_values_are_valid_without_a_numpy_error(self):
        # No arithmetic on the values: numpy scalars near the top of the
        # range pass even when numpy raises on overflow.
        with np.errstate(all="raise"):
            jet = JetTriple(*np.array([1e308, 1e308, -1e308, 1e308, 5e-324]))
        assert (jet.u1, jet.dt, jet.dx) == (1e308, 1e308, 5e-324)

    def test_value_that_is_not_a_real_number_raises_its_own_error(self):
        with pytest.raises(TypeError, match="must be real number, not str"):
            JetTriple(0.0, "1", 0.0, dt=1.0, dx=1.0)
        with pytest.raises(TypeError, match="must be real number, not NoneType"):
            JetTriple(0.0, 0.0, 0.0, dt=None, dx=1.0)
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            JetTriple(10 ** 400, 0.0, 0.0, dt=1.0, dx=1.0)
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            JetTriple(0.0, 0.0, 0.0, dt=1.0, dx=10 ** 400)


class TestDiscreteField:
    def test_immutability(self, mesh):
        f = DiscreteField.zeros(mesh)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0
        with pytest.raises(AttributeError):
            f.values = np.ones(mesh.shape)

    def test_with_value_copies(self, mesh):
        f = DiscreteField.zeros(mesh)
        g = f.with_value(1, 2, 7.0)
        assert f[1, 2] == 0.0
        assert g[1, 2] == 7.0

    def test_from_callable_uses_physical_coordinates(self, mesh):
        f = DiscreteField.from_callable(mesh, lambda t, x: 10.0 * t + x)
        assert f[2, 3] == pytest.approx(10.0 * 1.0 + 3.0)

    def test_rejects_nan(self, mesh):
        vals = np.zeros(mesh.shape)
        vals[0, 0] = np.inf
        with pytest.raises(ValueError):
            DiscreteField(mesh, vals)

    def test_jet_extension_matches_triangle(self, mesh):
        f = DiscreteField.from_callable(mesh, lambda t, x: t * t + 3.0 * x)
        jet = jet_extension(f, TriangleIndex(1, 2))
        assert jet.u1 == f[1, 2]
        assert jet.u2 == f[1, 3]
        assert jet.u3 == f[2, 2]

    def test_jet_extension_periodic_wraps(self, mesh):
        f = DiscreteField.from_callable(mesh, lambda t, x: x)
        jet = jet_extension(f, TriangleIndex(0, mesh.nx), periodic=True)
        assert jet.u1 == f[0, mesh.nx]
        assert jet.u2 == f[0, 0]

    def test_csv_roundtrip_exact(self, mesh, tmp_path):
        rng = np.random.default_rng(0)
        f = DiscreteField(mesh, rng.standard_normal(mesh.shape))
        path = tmp_path / "field.csv"
        field_to_csv(f, path)
        first = path.read_text().splitlines()[0]
        assert first == "n,i,u"
        g = field_from_csv(mesh, path)
        assert np.array_equal(f.values, g.values)

    def test_csv_missing_node_rejected(self, mesh, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,i,u\n0,0,1.0\n")
        with pytest.raises(ValueError):
            field_from_csv(mesh, path)

    def test_csv_duplicate_node_rejected(self, mesh, tmp_path):
        f = DiscreteField.zeros(mesh)
        path = tmp_path / "dup.csv"
        field_to_csv(f, path)
        with open(path, "a") as fh:
            fh.write("0,0,9\n")
        with pytest.raises(ValueError, match=r"\(0, 0\).*more than once"):
            field_from_csv(mesh, path)

    def test_csv_nan_value_named_as_non_finite(self, mesh, tmp_path):
        f = DiscreteField.zeros(mesh)
        path = tmp_path / "nan.csv"
        field_to_csv(f, path)
        text = path.read_text().replace("2,3,0.0", "2,3,nan")
        path.write_text(text)
        with pytest.raises(ValueError, match=r"non-finite value .* \(2, 3\)"):
            field_from_csv(mesh, path)


    @pytest.mark.parametrize("row", ["2,3", "2,3,0.0,7"])
    def test_csv_row_width_named_by_line(self, mesh, tmp_path, row):
        f = DiscreteField.zeros(mesh)
        path = tmp_path / "width.csv"
        field_to_csv(f, path)
        lines = path.read_text().splitlines()
        lines[3] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"line 4: expected 3 fields"):
            field_from_csv(mesh, path)

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        # Non-square mesh; negative zero, a subnormal and +-1e300 included.
        mesh = build_mesh(dt=0.5, dx=1.0, nt=3, nx=6)
        values = np.random.default_rng(1).standard_normal(mesh.shape)
        values[0, :4] = [-0.0, 5e-324, 1e300, -1e300]
        f = DiscreteField(mesh, values)
        path = tmp_path / "field.csv"
        field_to_csv(f, path)
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["n", "i", "u"])
        for n in range(mesh.nt + 1):
            for i in range(mesh.nx + 1):
                writer.writerow([n, i, repr(float(values[n, i]))])
        assert path.read_bytes() == ref.getvalue().encode()
        back = field_from_csv(mesh, path)
        assert np.array_equal(back.values, values)
        assert np.signbit(back.values[0, 0])

class TestRegions:
    def test_rect_interior_and_boundary_partition(self, mesh):
        reg = RectRegion(1, 1, 3, 4)
        inner = set(interior_nodes(reg))
        outer = set(boundary_nodes(reg))
        assert inner.isdisjoint(outer)
        assert inner | outer == set(region_nodes(reg))
        assert len(outer) == 2 * (3 + 4)

    def test_patch3_nodes_are_its_boundary_then_its_centre(self):
        patch = Patch3Region(2, 3)
        assert region_nodes(patch) == boundary_nodes(patch) + [(2, 3)]
        assert len(set(region_nodes(patch))) == 7

    def test_rect_boundary_counterclockwise(self):
        reg = RectRegion(0, 0, 2, 2)
        assert boundary_nodes(reg) == [
            (0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0)]

    def test_rect_triangles_cover(self, mesh):
        reg = RectRegion(1, 0, 2, 3)
        tris = region_triangles(reg)
        assert len(tris) == 2 * 3
        assert all(tri.fits(mesh) for tri in tris)

    def test_patch3_structure(self):
        patch = Patch3Region(2, 3)
        assert interior_nodes(patch) == [(2, 3)]
        assert region_triangles(patch) == [
            TriangleIndex(2, 3), TriangleIndex(2, 2), TriangleIndex(1, 3)]
        assert boundary_nodes(patch) == [
            (2, 4), (3, 3), (3, 2), (2, 2), (1, 3), (1, 4)]

    @pytest.mark.parametrize("region", [
        RectRegion(0, 0, 4, 5), RectRegion(1, 2, 3, 3), RectRegion(2, 1, 2, 4),
        RectRegion(3, 3, 1, 2), RectRegion(0, 4, 4, 1), Patch3Region(2, 3),
        Patch3Region(1, 1)])
    @pytest.mark.parametrize("ncols", [6, 9])
    def test_interior_index_matches_node_index(self, region, ncols):
        flat = interior_index(region, ncols)
        assert np.array_equal(flat, node_index(interior_nodes(region), ncols))
        assert flat.dtype == np.intp

    @settings(max_examples=200, deadline=None)
    @given(region=REGIONS, spare=st.integers(0, 3))
    def test_enumerations_agree(self, region, spare):
        nodes, bnodes, inner = region_nodes(region), boundary_nodes(region), interior_nodes(region)
        ncols = max(i for _, i in nodes) + 1 + spare
        index = region_index(region, ncols)
        # The interior, found independently: the nodes filling all three vertex slots.
        assert np.array_equal(interior_index(region, ncols),
                              np.flatnonzero(np.bincount(index.ravel()) == 3))
        assert np.array_equal(index, np.array(
            [node_index(tri.vertices, ncols) for tri in region_triangles(region)]).T)
        assert len(set(nodes)) == len(nodes) == len(bnodes) + len(inner)
        assert set(nodes) == set(bnodes) | set(inner)
        assert parse_region(json.dumps(region_to_json(region))) == region

    def test_patch3_needs_interior_anchor(self):
        with pytest.raises(ValueError):
            Patch3Region(0, 1)

    def test_check_region_fits(self, mesh):
        from mslab.jetmesh import check_region_fits

        check_region_fits(RectRegion(0, 1, 4, 4), mesh)
        check_region_fits(Patch3Region(3, 4), mesh)
        for region in (RectRegion(0, 2, 4, 4), RectRegion(1, 0, 4, 1),
                       Patch3Region(4, 1), Patch3Region(1, 5)):
            with pytest.raises(ValueError, match="does not fit mesh with shape"):
                check_region_fits(region, mesh)

    def test_region_json_roundtrip(self):
        for reg in (RectRegion(1, 2, 3, 4), Patch3Region(2, 2)):
            assert parse_region(region_to_json(reg)) == reg

    @pytest.mark.parametrize("obj", [
        {"kind": "rect", "n0": 0.5, "i0": 0, "nt": 2.9, "nx": 2},
        {"kind": "rect", "n0": 0, "i0": 0, "nt": 2, "nx": 2.5},
        {"kind": "patch3", "n": 1.5, "i": 1},
    ])
    def test_parse_region_rejects_non_integral_values(self, obj):
        with pytest.raises(ValueError, match="must be an integer"):
            parse_region(obj)

    def test_parse_region_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            parse_region({"kind": "rect", "n0": 0, "i0": 0, "nt": 2, "nx": 2,
                          "bogus": 1})
        with pytest.raises(ValueError):
            parse_region({"kind": "triangle"})


class TestBoundaryData:
    def test_ordering_follows_boundary_nodes(self):
        reg = RectRegion(0, 0, 2, 2)
        nodes = boundary_nodes(reg)
        data = BoundaryData(reg, list(range(len(nodes))))
        assert data.as_mapping()[(0, 2)] == 2.0

    def test_from_mapping_validates_cover(self):
        reg = RectRegion(0, 0, 2, 2)
        full = {nd: 0.0 for nd in boundary_nodes(reg)}
        missing = dict(full)
        missing.pop((2, 1))
        with pytest.raises(ValueError, match="missing"):
            BoundaryData.from_mapping(reg, missing)
        extra = dict(full)
        extra[(1, 1)] = 1.0
        with pytest.raises(ValueError, match="non-boundary"):
            BoundaryData.from_mapping(reg, extra)

    def test_from_field(self, mesh):
        f = DiscreteField.from_callable(mesh, lambda t, x: t + x)
        reg = RectRegion(1, 1, 2, 3)
        data = BoundaryData.from_field(f, reg)
        for nd, val in data.as_mapping().items():
            assert val == f[nd]

    def test_perturbed(self):
        reg = RectRegion(0, 0, 2, 2)
        data = BoundaryData(reg, [0.0] * 8)
        bumped = data.perturbed(3, 0.5)
        assert bumped.values[3] == 0.5
        assert data.values[3] == 0.0

    def test_rejects_nonfinite(self):
        reg = RectRegion(0, 0, 2, 2)
        with pytest.raises(ValueError):
            BoundaryData(reg, [0.0] * 7 + [float("inf")])

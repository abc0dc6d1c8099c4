"""Every input refusal of the library, one case each: the exception type and
its whole message.

These are the validation raises that no other test reaches (the line ledger
``tools/unrun.txt`` lists what tier-1 leaves unrun).  Each case is a call
that must refuse its input before doing any work.
"""

import math

import numpy as np
import pytest

from mslab import (
    BoundaryData,
    DiscreteField,
    FourierBoundaryData,
    FreeParticle,
    HarmonicOscillator,
    LinearWave,
    MixedBoundaryData,
    Patch3Region,
    PhasePoint,
    QuadraticDensity,
    RectRegion,
    TriangleIndex,
    build_mesh,
    canonical_type2_split,
    ddw_residual,
    del_residual,
    density_from_json,
    disc_boundary_lagrangian_quadrature,
    exact_discrete_hamiltonian,
    exact_discrete_lagrangian,
    field_from_csv,
    field_to_csv,
    harmonic_hamiltonian,
    hessian_symmetry,
    jet_extension,
    midpoint_rule,
    msff_residual_region,
    parse_region,
    region_to_json,
    solve_bvp,
    tangent_solve,
    variational_order_check,
    wave_exact_solutions,
)
from mslab.lagrangian import LagrangianDensity
from mslab.mechanics import MechLagrangian, lobatto

MESH = build_mesh(dt=0.5, dx=1.0, nt=4, nx=5)
FIELD = DiscreteField.zeros(MESH)
THIN = RectRegion(0, 0, 1, 3)  # one cell high: no interior node
SQUARE = RectRegion(0, 0, 2, 2)
A_SIDE, B_SIDE = canonical_type2_split(SQUARE)


class FlowOnly(MechLagrangian):
    """An exact flow but no exact discrete Lagrangian."""

    name = "flow_only"

    def value(self, q, qdot):
        return 0.5 * qdot * qdot

    def exact_flow(self, z, h):
        return PhasePoint(z.q + h * z.p, z.p)


CASES = {
    # jetmesh
    "field-shape": (lambda: DiscreteField(MESH, np.zeros((2, 2))), ValueError,
                    "field shape (2, 2) does not match mesh (5, 6)"),
    "jet-periodic-row": (lambda: jet_extension(FIELD, TriangleIndex(4, 0), periodic=True),
                         ValueError, "triangle TriangleIndex(n=4, i=0) outside time range "
                                     "of mesh"),
    "jet-outside": (lambda: jet_extension(FIELD, TriangleIndex(0, 5)), ValueError,
                    "triangle TriangleIndex(n=0, i=5) does not fit in mesh with shape (5, 6)"),
    "region-anchor": (lambda: RectRegion(-1, 0, 2, 2), ValueError,
                      "region anchor must be non-negative"),
    "region-span": (lambda: RectRegion(0, 0, 2, 0), ValueError,
                    "region must span at least one cell in each direction"),
    "boundary-count": (lambda: BoundaryData(SQUARE, [1.0]), ValueError,
                       "expected 8 boundary values for RectRegion(n0=0, i0=0, nt=2, nx=2), "
                       "got shape (1,)"),
    "region-json": (lambda: parse_region([1]), ValueError,
                    "region description must be a dict with a 'kind', got [1]"),
    # delsolve
    "del-column": (lambda: del_residual(LinearWave, FIELD, 1, 0), ValueError,
                   "column 0 has no interior stencil (0..5)"),
    "bvp-no-interior": (lambda: solve_bvp(LinearWave, MESH, BoundaryData(THIN, np.zeros(8))),
                        ValueError, "region RectRegion(n0=0, i0=0, nt=1, nx=3) has no "
                                    "interior nodes"),
    "tangent-no-interior": (lambda: tangent_solve(LinearWave, FIELD, THIN,
                                                  BoundaryData(THIN, np.zeros(8))),
                            ValueError, "region RectRegion(n0=0, i0=0, nt=1, nx=3) has no "
                                        "interior nodes"),
    # genfunc
    "ddw-too-small": (lambda: ddw_residual(LinearWave, FIELD, RectRegion(0, 0, 1, 1)),
                      ValueError, "region too small: no site has both forward neighbours"),
    "split-patch": (lambda: canonical_type2_split(Patch3Region(2, 2)), ValueError,
                    "the mixed split is defined for rectangle regions"),
    "mixed-values": (lambda: MixedBoundaryData(SQUARE, {}, dict.fromkeys(B_SIDE, 0.0)),
                     ValueError, "value data must cover exactly the bottom row and both "
                                 "side columns"),
    "mixed-nan": (lambda: MixedBoundaryData(SQUARE, dict.fromkeys(A_SIDE, math.nan),
                                            dict.fromkeys(B_SIDE, 0.0)),
                  ValueError, "mixed boundary data contains NaN/Inf"),
    "mixed-json-keys": (lambda: MixedBoundaryData.from_json(
        {"region": region_to_json(SQUARE), "A": {}}), ValueError,
        "mixed data needs exactly the keys region/A/B"),
    # lagrangian
    "density-abstract": (lambda: LagrangianDensity().value(0.0, 0.0, 0.0),
                         NotImplementedError, ""),
    "density-nan": (lambda: QuadraticDensity(vv=math.nan), ValueError,
                    "non-finite density coefficients (nan, 0.0, 0.0, 0.0, 0.0, 0.0)"),
    "density-json": (lambda: density_from_json(3), ValueError,
                     "cannot build a density from 3"),
    # mechanics
    "mech-abstract": (lambda: MechLagrangian().value(0.0, 0.0), NotImplementedError, ""),
    "omega": (lambda: HarmonicOscillator(0.0), ValueError,
              "omega must be positive and finite, got 0.0"),
    "lobatto": (lambda: lobatto(1), ValueError, "need at least the two endpoint nodes"),
    "ld-step": (lambda: exact_discrete_lagrangian(FreeParticle(), 0.0, 1.0, -1.0),
                ValueError, "step h must be positive and finite, got -1.0"),
    "hd-step": (lambda: exact_discrete_hamiltonian(harmonic_hamiltonian(), 0.0, 0.0, math.nan),
                ValueError, "step h must be positive and finite, got nan"),
    "order-no-exact-ld": (lambda: variational_order_check(
        midpoint_rule(FlowOnly()), FlowOnly(), PhasePoint(0.0, 1.0), [0.4, 0.2, 0.1]),
        ValueError, "flow_only lacks exact_flow or exact_ld; cannot fit orders"),
    # msforms
    "msff-no-interior": (lambda: msff_residual_region(LinearWave, FIELD, FIELD, FIELD, THIN),
                         ValueError, "region RectRegion(n0=0, i0=0, nt=1, nx=3) has no "
                                     "interior nodes"),
    "hsym-method": (lambda: hessian_symmetry(LinearWave, MESH, BoundaryData(SQUARE, np.zeros(8)),
                                             method="exact"),
                    ValueError, "unknown method 'exact'; use 'analytic' or 'fd'"),
    # oracles
    "square-edge": (lambda: wave_exact_solutions("cubic").trace_square().with_edge(
        "middle", None), ValueError, "unknown edge 'middle'"),
    "fourier-nan": (lambda: FourierBoundaryData(math.nan), ValueError,
                    "Fourier data contains NaN/Inf"),
    "fourier-json": (lambda: FourierBoundaryData.from_json([1]), ValueError,
                     "Fourier data must be a mapping, got [1]"),
    "disc-overflow": (lambda: disc_boundary_lagrangian_quadrature(FourierBoundaryData(1e308)),
                      ValueError, "coefficients too large: the integrand bound overflows"),
}


@pytest.mark.parametrize("call, exc, message", CASES.values(), ids=CASES.keys())
def test_refusal(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message


class TestFieldCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "field.csv"
        path.write_text(text)
        return path

    def test_wrong_header(self, tmp_path):
        with pytest.raises(ValueError) as info:
            field_from_csv(MESH, self.write(tmp_path, "a,b,c\n"))
        assert str(info.value) == "expected CSV header 'n,i,u', got ['a', 'b', 'c']"

    def test_node_outside_the_mesh(self, tmp_path):
        with pytest.raises(ValueError) as info:
            field_from_csv(MESH, self.write(tmp_path, "n,i,u\n9,0,1.0\n"))
        assert str(info.value) == "node (9, 0) outside mesh with shape (5, 6)"

    def test_blank_lines_are_skipped(self, tmp_path):
        values = np.arange(30.0).reshape(MESH.shape)
        path = tmp_path / "field.csv"
        field_to_csv(DiscreteField(MESH, values), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + ["", ""] + lines[3:]) + "\n\n")
        assert field_from_csv(MESH, path).values.tobytes() == values.tobytes()

"""The option surface: every defaulted parameter of the public library API.

A new keyword option shows up here as a diff of ``OPTIONS``; settings that
no caller changes belong as constants beside the code that uses them.
"""

import importlib
import inspect

MODULES = ("jetmesh", "lagrangian", "dual", "delsolve", "msforms", "genfunc",
           "mechanics", "oracles")

OPTIONS = [
    "jetmesh.jet_extension:periodic",
    "jetmesh.triangle_index:periodic",
    "lagrangian.QuadraticDensity.__init__:vv",
    "lagrangian.QuadraticDensity.__init__:ww",
    "lagrangian.QuadraticDensity.__init__:uu",
    "lagrangian.QuadraticDensity.__init__:vw",
    "lagrangian.QuadraticDensity.__init__:vu",
    "lagrangian.QuadraticDensity.__init__:wu",
    "lagrangian.QuadraticDensity.__init__:name",
    "lagrangian.UserDensity.__init__:name",
    "lagrangian.quartic_test_density:strength",
    "lagrangian.triangle_kernel:gradient",
    "lagrangian.triangle_kernel:hessian",
    "dual.Dual.__init__:du",
    "delsolve.SingularSystem.__init__:rcond",
    "delsolve.FixedClosure.__init__:left",
    "delsolve.FixedClosure.__init__:right",
    "delsolve.del_residual:periodic",
    "delsolve.step_row:row_index",
    "delsolve.solve_bvp:initial",
    "msforms.msff_residual_patch:check_variations",
    "msforms.msff_residual_region:check_variations",
    "msforms.bridges_residual:periodic",
    "msforms.bridges_residuals:periodic",
    "msforms.hessian_symmetry:method",
    "genfunc.boundary_lagrangian:initial",
    "genfunc.legendre:ubar",
    "genfunc.ddw_residual:region",
    "mechanics.HarmonicOscillator.__init__:omega",
    "mechanics.harmonic_hamiltonian:omega",
    "mechanics.exact_discrete_lagrangian:n_nodes",
    "mechanics.endpoint_momenta:n_nodes",
    "mechanics.exact_discrete_hamiltonian:n_nodes",
    "oracles.DalembertSolution.__init__:fit_residual",
    "oracles.FourierBoundaryData.__init__:a0",
    "oracles.FourierBoundaryData.__init__:a",
    "oracles.FourierBoundaryData.__init__:b",
]


def _public_callables(mod):
    """(qualified name, function) of the public functions of ``mod`` and the
    public methods (``__init__`` included) of its public classes."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member) and (attr == "__init__"
                                                   or not attr.startswith("_")):
                    yield f"{name}.{attr}", member


def surface():
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"mslab.{short}")
        for name, fn in _public_callables(mod):
            out += [f"{short}.{name}:{p.name}"
                    for p in inspect.signature(fn).parameters.values()
                    if p.default is not inspect.Parameter.empty]
    return out


def test_option_surface_matches_the_list():
    assert surface() == OPTIONS

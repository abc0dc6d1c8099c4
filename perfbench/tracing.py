"""Layer tracing of mslab from outside the package.

``Tracer`` replaces every public function of the nine mslab modules, in
every module that bound it by name, with a timing wrapper, and restores the
originals on exit.  It also wraps ``JetTriple.__init__``, scipy's ``splu``
and ``onenormest`` as ``delsolve`` imported them, and the ``solve`` method
of each LU object ``splu`` returns.

Coarse calls become in-memory spans ``(id, name, start, end, parent, check,
agg_s)``.  Per-triangle and per-node entry points (``AGGREGATED``) only add
to counters and timers; a coarse function called inside one of them is
counted the same way, so spans never sit below an aggregated call.  A span's
``agg_s`` is the time spent in outermost aggregated calls directly below it,
which ``span_self_times`` subtracts along with its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

MODULES = ("jetmesh", "lagrangian", "dual", "delsolve", "msforms", "genfunc",
           "mechanics", "oracles", "cli")

# Entry points called once per triangle, node or dual evaluation.
AGGREGATED = {
    "jetmesh.JetTriple", "lagrangian.grad_Ld", "lagrangian.hess_Ld",
    "lagrangian.eval_Ld", "lagrangian.omega_k", "lagrangian.theta_k",
    "delsolve.del_residual", "msforms.linearized_del_residual",
    "msforms.msff_residual_patch", "msforms.bridges_residual",
    "msforms.symplectic_flux", "dual.derivative", "dual.gradient",
    "dual.partial", "dual.hessian", "dual.value", "dual.sin", "dual.cos",
    "dual.exp", "dual.log", "dual.sqrt", "scipy.lu_solve",
    "scipy.lu_solve_rhs2d", "scipy.lu_solve_normest", "scipy.onenormest",
    "mechanics.type1_map",
}

# Keys that belong to scipy rather than to the module that calls them.
FOREIGN = {"delsolve.splu": "scipy.splu", "delsolve.onenormest": "scipy.onenormest"}


def span_self_times(spans) -> dict:
    """Self time of each span: its duration minus the part of it covered by
    its child spans and minus ``agg_s``.  ``spans`` are tuples
    ``(id, name, start, end, parent, check, agg_s)``."""
    children = defaultdict(list)
    for sp in spans:
        if sp[4] is not None:
            children[sp[4]].append((sp[2], sp[3]))
    out = {}
    for sp in spans:
        start, end = sp[2], sp[3]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sp[0], ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp[0]] = (end - start) - covered - sp[6]
    return out


class _LuProxy:
    """Stands in for a SuperLU object and times its ``solve`` calls."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, *args, **kwargs):
        tracer = self._tracer
        if getattr(rhs, "ndim", 1) == 2:
            key = "scipy.lu_solve_rhs2d"
        elif tracer.layers["normest"].depth:
            key = "scipy.lu_solve_normest"
        else:
            key = "scipy.lu_solve"
        return tracer.call(tracer.stats[key], self._lu.solve, (rhs,) + args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _Stat:
    """Counters of one traced name."""

    __slots__ = ("key", "layer", "aggregated", "calls", "incl", "own")

    def __init__(self, key, layer):
        self.key, self.layer = key, layer
        self.aggregated = key in AGGREGATED
        self.calls, self.incl, self.own = 0, 0.0, 0.0


class _Layer:
    """Nesting depth and inclusive time of one layer."""

    __slots__ = ("depth", "incl")

    def __init__(self):
        self.depth, self.incl = 0, 0.0


class Tracer:
    """Context manager that traces one pass over a workload's checks."""

    def __init__(self, package):
        self.package = package
        self.modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                        for m in MODULES}
        self.clock = time.perf_counter
        self.spans = []
        self.span_stack = []
        self.agg_stack = []
        self.layers = defaultdict(_Layer)
        self.stats = {}
        self.extra = Counter()
        self.check = None
        self.originals = {}
        self._next_id = 0
        self._restore = []
        self._errors = []
        self._solver_error = self.modules["delsolve"].SolverError

    def _stat(self, key, layer) -> _Stat:
        self.stats[key] = _Stat(key, self.layers[layer])
        return self.stats[key]

    # -- timing core ---------------------------------------------------------

    def call(self, st, fn, args, kwargs):
        agg_stack, span_stack = self.agg_stack, self.span_stack
        aggregated = st.aggregated or agg_stack
        if aggregated:
            frame = [0.0]
            agg_stack.append(frame)
        else:
            frame = [self._next_id, st.key, 0.0, 0.0,
                     span_stack[-1][0] if span_stack else None, self.check, 0.0]
            self._next_id += 1
            span_stack.append(frame)
        layer = st.layer
        layer.depth += 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except self._solver_error as exc:
            if not any(exc is seen for seen in self._errors):
                self._errors.append(exc)
            raise
        finally:
            elapsed = self.clock() - start
            layer.depth -= 1
            if not layer.depth:
                layer.incl += elapsed
            st.calls += 1
            st.incl += elapsed
            if aggregated:
                agg_stack.pop()
                st.own += elapsed - frame[0]
                if agg_stack:
                    agg_stack[-1][0] += elapsed
                elif span_stack:
                    span_stack[-1][6] += elapsed
            else:
                span_stack.pop()
                frame[2], frame[3] = start, start + elapsed
                self.spans.append(tuple(frame))

    def _wrapper(self, key, layer, fn, after=None):
        tracer, st = self, self._stat(key, layer)

        def wrapper(*args, **kwargs):
            result = tracer.call(st, fn, args, kwargs)
            return after(args, kwargs, result) if after else result

        return wrapper

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(key, layer, function) for every traced name that mslab defines."""
        for mod_name, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    yield f"{mod_name}.{attr}", mod_name, obj
        for key, foreign in FOREIGN.items():
            mod_name, attr = key.split(".")
            if attr in vars(self.modules[mod_name]):
                # onenormest gets its own layer so LU solves inside it are
                # told apart from back-solves.
                yield (foreign, "normest" if attr == "onenormest" else "scipy",
                       vars(self.modules[mod_name])[attr])

    def __enter__(self):
        namespaces = [self.package] + list(self.modules.values())
        hooks = {"delsolve.solve_bvp": self._after_bvp,
                 "jetmesh.field_to_csv": self._after_csv,
                 "msforms.hessian_symmetry": self._after_hsym,
                 "scipy.splu": self._after_splu}
        try:
            for key, layer, obj in list(self._targets()):
                self.originals[key] = obj
                wrapper = self._wrapper(key, layer, obj, hooks.get(key))
                for ns in namespaces:
                    for name, val in list(vars(ns).items()):
                        if val is obj:
                            self._restore.append((ns, name, val))
                            setattr(ns, name, wrapper)
            if "scipy.splu" in self.stats:
                for key in ("scipy.lu_solve", "scipy.lu_solve_rhs2d",
                            "scipy.lu_solve_normest"):
                    self._stat(key, "scipy")
            jet = self.modules["jetmesh"].JetTriple
            init = jet.__init__
            self._restore.append((jet, "__init__", init))
            tracer, st = self, self._stat("jetmesh.JetTriple", "jetmesh")

            def jet_init(obj, *args, **kwargs):
                tracer.call(st, init, (obj,) + args, kwargs)

            jet.__init__ = jet_init
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._restore:
            ns, name, val = self._restore.pop()
            setattr(ns, name, val)

    # -- per-call hooks ------------------------------------------------------

    def _after_bvp(self, args, kwargs, report):
        self.extra["bvp_iters"] += report.iterations
        return report

    def _after_csv(self, args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[1]
        self.extra["csv_bytes"] += os.path.getsize(path)
        return result

    def _after_hsym(self, args, kwargs, report):
        # Size of the dense (nb+ni)^2 float64 matrix the analytic route
        # builds, computed from the region rather than measured.
        if report.method == "analytic":
            region = (kwargs["boundary"] if "boundary" in kwargs else args[2]).region
            n = (len(self.originals["jetmesh.boundary_nodes"](region))
                 + len(self.originals["jetmesh.interior_nodes"](region)))
            self.extra["hsym_dense_bytes"] = max(self.extra["hsym_dense_bytes"],
                                                 8 * n * n)
        return report

    def _after_splu(self, args, kwargs, lu):
        self.extra["lu_fill_nnz"] += lu.L.nnz + lu.U.nnz
        return _LuProxy(self, lu)

    # -- metrics -------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer: coarse spans plus aggregated calls."""
        layers = defaultdict(float)
        own = span_self_times(self.spans)
        for sp in self.spans:
            layers[sp[1].split(".")[0]] += own[sp[0]]
        for st in self.stats.values():
            layers[st.key.split(".")[0]] += st.own
        return dict(layers)

    def solver_errors(self) -> int:
        return len(self._errors)


class MissingName(LookupError):
    """A metric depends on a name the tracer could not find in mslab."""


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    A metric whose source name was not found in mslab has the value
    ``None``, so a renamed or removed function never reads as zero.
    """

    def need(*keys):
        lost = [k for k in keys if k not in tracer.stats]
        if lost:
            raise MissingName(", ".join(lost))
        return keys

    def calls(*keys):
        return sum(tracer.stats[k].calls for k in need(*keys))

    def incl(*keys):
        return sum(tracer.stats[k].incl for k in need(*keys))

    def extra(source, name):
        need(source)
        return tracer.extra[name]

    selfs = tracer.self_times()
    solves = ("delsolve.step_row", "delsolve.solve_bvp", "delsolve.tangent_solve",
              "genfunc.boundary_hamiltonian")
    collocation = ("mechanics.exact_discrete_lagrangian",
                   "mechanics.endpoint_momenta",
                   "mechanics.exact_discrete_hamiltonian")
    table = [
        ("jetmesh.jets", "count", lambda: calls("jetmesh.JetTriple")),
        ("jetmesh.jet_s", "s", lambda: incl("jetmesh.JetTriple")),
        ("jetmesh.enum_s", "s", lambda: incl("jetmesh.region_triangles",
                                             "jetmesh.interior_nodes",
                                             "jetmesh.boundary_nodes")),
        ("jetmesh.csv_bytes", "bytes",
         lambda: extra("jetmesh.field_to_csv", "csv_bytes")),
        ("jetmesh.csv_s", "s", lambda: incl("jetmesh.field_to_csv")),
    ]
    for short, name in (("grad", "grad_Ld"), ("hess", "hess_Ld"),
                        ("eval", "eval_Ld"), ("omega", "omega_k")):
        key = f"lagrangian.{name}"
        table += [(f"lagrangian.{short}_calls", "count", lambda k=key: calls(k)),
                  (f"lagrangian.{short}_s", "s", lambda k=key: incl(k))]
    table += [
        ("dual.hessian_calls", "count", lambda: calls("dual.hessian")),
        ("dual.gradient_calls", "count", lambda: calls("dual.gradient")),
        ("dual.partial_calls", "count", lambda: calls("dual.partial")),
        ("dual.s", "s", lambda: tracer.layers["dual"].incl),
        ("delsolve.step_rows", "count", lambda: calls("delsolve.step_row")),
        ("delsolve.step_row_s", "s", lambda: incl("delsolve.step_row")),
        ("delsolve.bvp_solves", "count", lambda: calls("delsolve.solve_bvp")),
        ("delsolve.bvp_iters", "count",
         lambda: extra("delsolve.solve_bvp", "bvp_iters")),
        ("delsolve.solve_bvp_s", "s", lambda: incl("delsolve.solve_bvp")),
        ("delsolve.tangent_solves", "count", lambda: calls("delsolve.tangent_solve")),
        ("delsolve.tangent_solve_s", "s", lambda: incl("delsolve.tangent_solve")),
        ("delsolve.del_residual_calls", "count", lambda: calls("delsolve.del_residual")),
        ("delsolve.lu_count", "count", lambda: calls("scipy.splu")),
        ("delsolve.lu_s", "s", lambda: incl("scipy.splu")),
        ("delsolve.lu_fill_nnz", "count",
         lambda: extra("scipy.splu", "lu_fill_nnz")),
        ("delsolve.solver_calls", "count", lambda: calls(*solves)),
        ("delsolve.lu_per_solve", "ratio",
         lambda: calls("scipy.splu") / max(1, calls(*solves))),
        ("delsolve.backsolve_count", "count", lambda: calls("scipy.lu_solve")),
        ("delsolve.backsolve_s", "s", lambda: incl("scipy.lu_solve")),
        ("delsolve.rcond_s", "s",
         lambda: incl("scipy.onenormest", "scipy.lu_solve_rhs2d")),
        ("delsolve.normest_count", "count", lambda: calls("scipy.onenormest")),
        ("delsolve.self_s", "s", lambda: selfs.get("delsolve", 0.0)),
        ("delsolve.solver_errors", "count", tracer.solver_errors),
        ("msforms.patch_calls", "count", lambda: calls("msforms.msff_residual_patch")),
        ("msforms.patch_s", "s", lambda: incl("msforms.msff_residual_patch")),
        ("msforms.region_s", "s", lambda: incl("msforms.msff_residual_region")),
        ("msforms.bridges_calls", "count",
         lambda: calls("msforms.bridges_residual", "msforms.symplectic_flux")),
        ("msforms.bridges_s", "s",
         lambda: incl("msforms.bridges_residual", "msforms.symplectic_flux")),
        ("msforms.hsym_s", "s", lambda: incl("msforms.hessian_symmetry")),
        ("msforms.hsym_dense_bytes", "bytes_computed",
         lambda: extra("msforms.hessian_symmetry", "hsym_dense_bytes")),
        ("msforms.self_s", "s", lambda: selfs.get("msforms", 0.0)),
        ("genfunc.action_s", "s", lambda: incl("genfunc.region_action")),
        ("genfunc.momenta_s", "s", lambda: incl("genfunc.normal_momenta")),
        ("genfunc.hamiltonian_s", "s", lambda: incl("genfunc.boundary_hamiltonian")),
        ("genfunc.self_s", "s", lambda: selfs.get("genfunc", 0.0)),
        ("mechanics.collocation_calls", "count", lambda: calls(*collocation)),
        ("mechanics.collocation_s", "s", lambda: incl(*collocation)),
        ("mechanics.type1_map_calls", "count", lambda: calls("mechanics.type1_map")),
        ("mechanics.self_s", "s", lambda: selfs.get("mechanics", 0.0)),
        ("oracles.s", "s", lambda: tracer.layers["oracles"].incl),
        ("cli.self_s", "s", lambda: selfs.get("cli", 0.0)),
        ("cli.report_bytes", "bytes", lambda: tracer.extra["report_bytes"]),
        ("trace.unattributed_frac", "ratio",
         lambda: (wall_s - sum(selfs.values())) / wall_s),
    ]
    out = {}
    for name, unit, fn in table:
        try:
            value = fn()
        except MissingName:
            value = None
        out[name] = (value, unit)
    return out

"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each cuspdiv module from the
outside: every binding site of a wrapped function (module attributes, names
re-exported by the package, class attributes) is replaced, so calls made
inside the package are traced the same way as calls made by the benchmark.
Spans are kept in memory; self times and per-layer metrics are computed when
the run ends.  Nothing in the package itself is modified on disk.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Recorder:
    """In-memory spans (name, parent, start, end) plus named counters."""

    def __init__(self):
        self.spans = []            # [name, parent index or -1, t0, t1]
        self.stack = []            # indices of open spans
        self.counts = defaultdict(float)
        self.seen = defaultdict(set)
        self.enabled = True

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, _clock(), None])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][3] = _clock()

    def inside(self, name):
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def add(self, key, value=1.0):
        self.counts[key] += value

    def peak(self, key, value):
        self.counts[key] = max(self.counts[key], float(value))

    def repeated(self, key, token):
        """True if token was already seen under key (then remembers it)."""
        if token in self.seen[key]:
            return True
        self.seen[key].add(token)
        return False

    def wrap(self, fn, name, hook=None, result_proxy=None):
        """Callable that records a span around fn, then runs hook outside it.

        hook(rec, args, kwargs, result) adds counts; its own cost is recorded
        as a 'trace.hooks' span so that it is not charged to any layer.
        """
        rec = self

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close()
            if hook is not None or result_proxy is not None:
                rec.open("trace.hooks")
                try:
                    if hook is not None:
                        hook(rec, args, kwargs, result)
                    if result_proxy is not None:
                        result = result_proxy(rec, result)
                finally:
                    rec.close()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def totals(self):
        """Per span name: [inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0.0])
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            dur = t1 - t0
            out[name][0] += dur
            out[name][1] += dur - child[i]
        return out

    def top_level_seconds(self):
        return sum(t1 - t0 for _, parent, t0, t1 in self.spans if parent < 0)


def _digest(array):
    buf = np.ascontiguousarray(array)
    h = hashlib.blake2b(memoryview(buf).cast("B"), digest_size=16)
    h.update(str(buf.shape).encode())
    return h.digest()


def _replace_everywhere(original, replacement, modules):
    """Rebind every module attribute that is `original` to `replacement`."""
    found = False
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)
                found = True
    if not found:
        raise RuntimeError(f"no binding site found for {original!r}")


class _TimedLU:
    """SuperLU stand-in whose solve() is traced; other attributes delegate."""

    def __init__(self, rec, lu):
        self._lu = lu
        self._solve = rec.wrap(lu.solve, "fem.lu.solve", _count_solve)

    def solve(self, *args, **kwargs):
        return self._solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _count_solve(rec, args, kwargs, result):
    rec.add("fem.lu.solves")


def _count_factor(rec, args, kwargs, lu):
    A = args[0]
    rec.add("fem.lu.factorizations")
    rec.add("fem.lu.fill_nnz", lu.L.nnz + lu.U.nnz)
    A = A.tocsc()
    token = (A.shape, _digest(A.indptr), _digest(A.indices), _digest(A.data))
    if not rec.repeated("fem.lu.matrices", token):
        rec.add("fem.lu.distinct")


def _count_distance(rec, args, kwargs, result):
    pts = np.atleast_2d(np.asarray(args[1], dtype=float))
    rec.add("geometry.distance.calls")
    rec.add("geometry.distance.points", len(pts))
    if rec.repeated("geometry.distance.inputs", (repr(args[0]), _digest(pts))):
        rec.add("geometry.distance.repeat_points", len(pts))


def _count_surrogate(rec, args, kwargs, result):
    rec.add("geometry.surrogate_distance.points",
            len(np.atleast_2d(np.asarray(args[1]))))


def _count_cubes(rec, args, kwargs, dec):
    rec.add("whitney.decompose.cubes", len(dec.cubes))


def _count_ball_grid(rec, args, kwargs, grid):
    rec.add("weights.ball_grid.calls")
    rec.add("weights.ball_grid.nodes", len(grid.nodes))


def _count_plan(rec, args, kwargs, plan):
    balls = plan["balls"]
    rec.add("weights.build_ball_plan.nodes", sum(len(b["d"]) for b in balls))
    rec.add("weights.build_ball_plan.plan_mb",
            sum(b["d"].nbytes + b["weights"].nbytes for b in balls) / 2**20)


def _count_tensor_grid(rec, args, kwargs, grid):
    rec.add("weights.tensor_grid.calls")
    rec.add("weights.tensor_grid.nodes", len(grid.nodes))
    key = repr((args, sorted(kwargs.items())))
    if rec.repeated("weights.tensor_grid.args", key):
        rec.add("weights.tensor_grid.repeats")


def _counter(key):
    def hook(rec, args, kwargs, result):
        rec.add(key)
    return hook


def _count_velocity(rec, args, kwargs, result):
    cells = np.count_nonzero(args[0].source.values)
    rec.add("potential.velocity.calls")
    rec.add("potential.velocity.targets", len(result))
    rec.add("potential.velocity.pairs", len(result) * cells)


def _count_generated(rec, args, kwargs, mesh):
    rec.add("mesh.generate_graded_mesh.vertices", mesh.num_vertices)
    rec.add("mesh.generate_graded_mesh.meshes")


def _count_refined(rec, args, kwargs, mesh):
    rec.add("mesh.refine.vertices", mesh.num_vertices)


def _count_p2(rec, args, kwargs, result):
    rec.add("fem.P2Space.dofs", args[0].n_dofs)


def _count_assemble(rec, args, kwargs, system):
    # B is left out: its pattern depends on the weight (exact cancellations)
    rec.add("fem.assemble.nnz", system.A.nnz + system.Mw.nnz)


def _count_dense_eig(rec, args, kwargs, result):
    rec.add("fem.eig.dense_calls")
    rec.peak("fem.eig.dense_n_max", args[0].shape[0])


def _count_sparse_eig(kind):
    def hook(rec, args, kwargs, result):
        rec.add("fem.eig.sparse_calls")
        rec.add(f"fem.eig.{kind}_calls")
    return hook


def _count_constant(rec, args, kwargs, est):
    rec.peak("fem.eig.residual_max", est.residual)


def instrument(rec: Recorder):
    """Wrap every public layer function of cuspdiv at all its binding sites."""
    import scipy.linalg
    import scipy.sparse.linalg

    from cuspdiv import (experiments, fem, geometry, mesh, potential, weights,
                         whitney)

    mods = [m for name, m in sorted(sys.modules.items())
            if name == "cuspdiv" or name.startswith("cuspdiv.")]

    def wrap(owner, attr, name, hook=None):
        orig = getattr(owner, attr)
        _replace_everywhere(orig, rec.wrap(orig, name, hook),
                            [owner] + [m for m in mods if m is not owner])

    wrap(geometry, "distance", "geometry.distance", _count_distance)
    wrap(geometry, "surrogate_distance", "geometry.surrogate_distance",
         _count_surrogate)
    wrap(whitney, "decompose", "whitney.decompose", _count_cubes)
    wrap(weights, "ball_grid", "weights.ball_grid", _count_ball_grid)
    wrap(weights, "build_ball_plan", "weights.build_ball_plan", _count_plan)
    wrap(weights, "estimate_ap_constant", "weights.estimate_ap_constant",
         _counter("weights.estimate_ap_constant.calls"))
    wrap(weights, "tensor_grid", "weights.tensor_grid", _count_tensor_grid)
    wrap(weights, "weighted_lp_norm", "weights.weighted_lp_norm",
         _counter("weights.weighted_lp_norm.calls"))
    wrap(mesh, "generate_graded_mesh", "mesh.generate_graded_mesh",
         _count_generated)
    wrap(mesh, "refine", "mesh.refine", _count_refined)
    wrap(mesh, "save_mesh", "mesh.save_mesh")
    wrap(mesh, "load_mesh", "mesh.load_mesh")
    wrap(fem, "assemble", "fem.assemble", _count_assemble)
    for fn in ("solve_stokes", "solve_div_right_inverse", "discrete_infsup"):
        wrap(fem, fn, f"fem.{fn}")
    for fn in ("korn_best_constant", "improved_poincare_constant"):
        wrap(fem, fn, f"fem.{fn}", _count_constant)
    wrap(experiments, "optimality_sweep", "experiments.optimality_sweep")

    # solvers as fem sees them: splu and eigsh are bound by name in fem,
    # eigh is reached through the scipy.linalg module, lobpcg is imported
    # from scipy.sparse.linalg at call time
    fem.splu = rec.wrap(fem.splu, "fem.lu.factor", _count_factor,
                        lambda r, lu: _TimedLU(r, lu))
    fem.eigsh = rec.wrap(fem.eigsh, "fem.eig.sparse", _count_sparse_eig("eigsh"))
    scipy.linalg.eigh = rec.wrap(scipy.linalg.eigh, "fem.eig.dense",
                                 _count_dense_eig)
    scipy.sparse.linalg.lobpcg = rec.wrap(scipy.sparse.linalg.lobpcg,
                                          "fem.eig.sparse",
                                          _count_sparse_eig("lobpcg"))

    # methods: patched on the class, which every instance sees
    potential.PotentialSolution.velocity = rec.wrap(
        potential.PotentialSolution.velocity, "potential.velocity",
        _count_velocity)
    fem.P2Space.__init__ = rec.wrap(fem.P2Space.__init__, "fem.P2Space",
                                    _count_p2)
    min_angle = mesh.TriangulatedMesh.min_angle

    def counted_min_angle(self):
        if rec.enabled and rec.inside("mesh.generate_graded_mesh"):
            rec.add("mesh.generate_graded_mesh.checks")
        return min_angle(self)

    mesh.TriangulatedMesh.min_angle = counted_min_angle


def layer_metrics(rec: Recorder, names, wall_s: float, cpu_s: float) -> dict:
    """Values of the named per-layer metrics for one traced pass.

    `X.self_s` is the self time of span X and `X_s` the inclusive time of
    span X; other names are counters, except the ratios derived below.  A
    metric is 0 where its function did not run.
    """
    tot = rec.totals()
    c = rec.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def self_s(span):
        return tot[span][1] if span in tot else 0.0

    derived = {
        "geometry.distance.points_per_s": ratio(
            c["geometry.distance.points"], self_s("geometry.distance")),
        "geometry.distance.repeat_points_frac": ratio(
            c["geometry.distance.repeat_points"], c["geometry.distance.points"]),
        "weights.tensor_grid.repeat_frac": ratio(
            c["weights.tensor_grid.repeats"], c["weights.tensor_grid.calls"]),
        "potential.velocity.pairs_per_s": ratio(
            c["potential.velocity.pairs"], self_s("potential.velocity")),
        "mesh.generate_graded_mesh.useful_ratio": ratio(
            c["mesh.generate_graded_mesh.meshes"],
            c["mesh.generate_graded_mesh.checks"]),
        "fem.lu.distinct_ratio": ratio(c["fem.lu.distinct"],
                                       c["fem.lu.factorizations"]),
        "proc.cpu_s": cpu_s,
        "trace.wall_s": wall_s,
        "trace.untraced_s": wall_s - rec.top_level_seconds(),
        "trace.spans_self_s": sum(v[1] for v in tot.values()),
    }
    out = {}
    for name in names:
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_s"):
            value = self_s(name[:-len(".self_s")])
        elif name.endswith("_s") and name[:-2] in tot:
            value = tot[name[:-2]][0]
        else:
            value = c.get(name, 0.0)
        out[name] = float(value)
    return out

"""Span tracing of one benchmark sample, from outside the program.

The tracer wraps the public functions of each axisiga layer at the name
through which its caller looks it up, records one span per call (name,
start, end, parent span, sample id) in memory, and writes the spans when the
sample ends.  A layer's self time is the duration of its spans minus the
time covered by their direct children.

The quadrature layer has no span of its own: element tabulation is private
to assembly (``assembly._QuadCache``) and ``gauss_legendre`` is memoized, so
its cost lands in assembly self time and in the geometry spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter_ns

# span name -> per-layer metric that receives its self time
SELF_TIME_METRICS = {
    "geometry.map_point": "geometry.eval_s",
    "geometry.jacobian": "geometry.eval_s",
    "assembly.build": "assembly.build_s",
    "assembly.mass_k1": "assembly.mass_k1_s",
    "assembly.mass_k2": "assembly.mass_k2_s",
    "assembly.curlcurl": "assembly.curlcurl_s",
    "assembly.load": "assembly.load_s",
    "assembly.reduce": "assembly.reduce_s",
    "derham.complex": "derham.complex_s",
    "solve.eig": "solve.eig_s",
    "solve.kkt": "solve.kkt_s",
    "bessel.oracle": "bessel.oracle_s",
    "bessel.root": "bessel.oracle_s",
    "manufactured.derive": "manufactured.derive_s",
    "manufactured.validate": "manufactured.validate_s",
    "manufactured.callback": "manufactured.callback_s",
    "studies.run": "studies.self_s",
    # the sample's root span: its self time is the correctness gate
    "bench.sample": "bench.verify_s",
}


class Tracer:
    """Spans and counters of one sample.  ``install`` patches the program;
    ``uninstall`` restores every patched name."""

    def __init__(self, sample_id: str):
        self.sample_id = sample_id
        self.spans: list = []          # (span_id, parent_id, name, start_ns, end_ns)
        self._stack = [-1]
        self._patches: list = []
        self.geometry_points: set = set()
        self.bessel_roots: set = set()
        self.eig: list = []            # per-solve diagnostics
        self.kkt: list = []
        self.nnz = 0
        self.last_system = None

    # -- spans ---------------------------------------------------------------

    def traced(self, fn, name, after=None):
        """``fn`` wrapped to record one span per call.  ``name`` is a string
        or a function of (args, kwargs); ``after(args, kwargs, result)``
        records counters once the span has closed."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def call(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                spans[sid] = (sid, parent, label, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return call

    def _wrap(self, owner, attr: str, name, after=None):
        """Replace ``owner.attr`` by its traced version."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, after))

    # -- instrumentation of the program ----------------------------------------

    def install(self):
        from axisiga import assembly, bessel, derham, geometry, manufactured, studies

        def point(kind):
            def after(args, kwargs, result):
                self.geometry_points.add((kind, float(args[1]), float(args[2])))
            return after

        self._wrap(geometry.NurbsGeometry, "map_point", "geometry.map_point",
                   point("map"))
        self._wrap(geometry.NurbsGeometry, "jacobian", "geometry.jacobian",
                   point("jac"))

        def built(args, kwargs, system):
            self.nnz += system.A.nnz + system.M.nnz + system.B.nnz
            self.last_system = system

        # studies imports these by name; build_mode_system looks its helpers
        # up in the assembly module.
        self._wrap(studies, "build_mode_system", "assembly.build", built)

        def mass_name(args, kwargs):
            k = kwargs.get("k", args[3] if len(args) > 3 else 1)
            return f"assembly.mass_k{k}"

        self._wrap(assembly, "assemble_mass", mass_name)
        self._wrap(assembly, "assemble_curlcurl", "assembly.curlcurl")
        self._wrap(assembly, "assemble_load", "assembly.load")
        self._wrap(assembly.ModeSystem, "reduced", "assembly.reduce")

        self._wrap(derham.DeRhamComplex2D, "__init__", "derham.complex")

        def eig_done(args, kwargs, res):
            n = args[0].shape[0]
            expected = (len(self.last_system.free_z0)
                        if self.last_system is not None else 0)
            self.eig.append({
                "n": n, "returned": len(res.eigenvalues),
                "filtered": res.num_filtered, "expected": expected,
                "margin": float(res.eigenvalues[0] / res.threshold),
                "residual": float(max(res.residuals)),
                "bytes": 8 * 3 * n * n,      # dense A, M and eigenvectors
            })

        def kkt_done(args, kwargs, sol):
            n, k = args[1].shape
            self.kkt.append({
                "n": n + k, "primal": sol.residual_primal,
                "gauge": sol.residual_gauge,
                "bytes": 8 * (n * n + n * k + (n + k) ** 2),  # A, B, KKT
            })

        self._wrap(studies, "solve_generalized_eig", "solve.eig", eig_done)
        self._wrap(studies, "solve_saddle_point", "solve.kkt", kkt_done)

        self._wrap(studies, "pillbox_spectrum", "bessel.oracle")
        self._wrap(studies, "pillbox_frequency", "bessel.oracle")

        def root(args, kwargs, result):
            self.bessel_roots.add(args + tuple(sorted(kwargs.items())))

        # the oracle looks bessel_root up in its own module
        self._wrap(bessel, "bessel_root", "bessel.root", root)

        MS = manufactured.ManufacturedSolution
        self._wrap(MS, "__init__", "manufactured.derive")
        self._wrap(studies, "validate_derivation", "manufactured.validate")
        self._wrap(MS, "current", "manufactured.callback")
        self._wrap(MS, "neumann", "manufactured.callback")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per span name."""
        child = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start - child[sid]) * 1e-9
        return dict(out)

    def metrics(self) -> dict:
        """Per-layer metrics of this sample (0 where a layer was not called)."""
        out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        for name, seconds in self.self_times().items():
            out[SELF_TIME_METRICS[name]] += seconds
        names = Counter(span[2] for span in self.spans)
        calls = names["geometry.map_point"] + names["geometry.jacobian"]
        out["geometry.eval_calls"] = calls
        out["geometry.unique_ratio"] = (len(self.geometry_points) / calls
                                        if calls else 0.0)
        out["assembly.build_calls"] = names["assembly.build"]
        out["assembly.nnz"] = self.nnz
        out["derham.complex_calls"] = names["derham.complex"]
        eig = self.eig
        out["solve.eig_n"] = max((e["n"] for e in eig), default=0)
        computed = sum(e["n"] for e in eig)
        out["solve.eig_returned_ratio"] = (
            sum(e["returned"] for e in eig) / computed if computed else 0.0)
        out["solve.eig_kernel_filtered"] = sum(e["filtered"] for e in eig)
        out["solve.eig_kernel_expected"] = sum(e["expected"] for e in eig)
        out["solve.eig_threshold_margin"] = min((e["margin"] for e in eig),
                                                default=0.0)
        out["solve.eig_max_residual"] = max((e["residual"] for e in eig),
                                            default=0.0)
        out["solve.kkt_n"] = max((s["n"] for s in self.kkt), default=0)
        out["solve.kkt_residual_primal"] = max(
            (s["primal"] for s in self.kkt), default=0.0)
        out["solve.kkt_residual_gauge"] = max(
            (s["gauge"] for s in self.kkt), default=0.0)
        out["solve.dense_bytes"] = max(
            (s["bytes"] for s in eig + self.kkt), default=0)
        roots = names["bessel.root"]
        out["bessel.root_calls"] = roots
        out["bessel.root_unique_ratio"] = (len(self.bessel_roots) / roots
                                           if roots else 0.0)
        out["manufactured.callback_calls"] = names["manufactured.callback"]
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str):
        """Write all spans as gzipped JSON: [id, parent, name, start_ns,
        end_ns] rows sharing one sample id."""
        with gzip.open(path, "wt") as fh:
            json.dump({"sample": self.sample_id,
                       "columns": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, fh)

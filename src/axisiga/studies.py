"""Benchmark drivers: pillbox eigenvalue study, manufactured-solution source
study, and the exactness suite.  Each returns a StudyReport holding CSV-ready
rows with the schema

    (study, p, subdivisions, m, parity, dofs, quantity, value, reference,
     rel_error, seconds)

Rows are emitted in a stable order so reports are byte-reproducible.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field, asdict

import numpy as np

from .assembly import (MaterialConstants, MeshForms, assemble_load,
                       build_mode_system, l2_rho_error)
# no study calls pillbox_frequency; perfbench/spans.py traces it by this name
from .bessel import BesselError, PillboxSpec, pillbox_frequency, pillbox_spectrum
from .derham import DeRhamComplex2D
from .geometry import BUILTIN_GEOMETRIES, pillbox_section
from .manufactured import (ACTIVE_MODES, ManufacturedSolution,
                           validate_derivation)
from .solve import convergence_rate, solve_generalized_eig, solve_saddle_point
from .splines import KnotVector, SplineSpace1D


class StudyError(ValueError):
    pass


CSV_COLUMNS = ("study", "p", "subdivisions", "m", "parity", "dofs",
               "quantity", "value", "reference", "rel_error", "seconds")


@dataclass
class StudyConfig:
    """Configuration of one benchmark run (see README for the file schema)."""

    study: str = "exactness"
    geometry: str = ""            # empty or the study's own cross-section
    degrees: tuple = (2,)
    subdivisions: tuple = (2, 4)
    modes: tuple = (1,)
    eps: float = MaterialConstants().eps
    mu: float = MaterialConstants().mu
    eigs: int = 10
    gamma: float = 2.0
    radius: float = 0.035
    length: float = 0.1
    target: str = ""              # e.g. "TE,3,4" = (kind, n, q) rate target
    seed: int = 0
    out_dir: str = ""

    def validate(self):
        if self.study not in ("pillbox", "source", "exactness"):
            raise StudyError(f"study: unknown kind {self.study!r}")
        for name in ("degrees", "subdivisions", "modes"):
            vals = getattr(self, name)
            if not vals:
                raise StudyError(f"{name}: list must be non-empty")
            # a repeated value would solve its meshes or modes twice
            for i, v in enumerate(vals):
                if v in vals[:i]:
                    raise StudyError(f"{name}: duplicate {name[:-1]} {v}")
        if any(m == 0 for m in self.modes):
            raise StudyError("modes: mode 0 is out of scope")
        if any(p < 1 for p in self.degrees):
            raise StudyError("degrees: need p >= 1")
        if any(s < 1 for s in self.subdivisions):
            raise StudyError("subdivisions: need at least one element")
        if not np.isfinite(self.gamma):
            raise StudyError("gamma: must be a finite number")
        try:
            PillboxSpec(self.radius, self.length, self.eps, self.mu)
        except BesselError as exc:
            raise StudyError(str(exc)) from exc
        if self.eigs < 1:
            raise StudyError("eigs: need at least one eigenvalue")
        if self.seed < 0:
            raise StudyError("seed: need seed >= 0")
        if self.target:
            _parse_target(self.target)
        # the references describe one cross-section each; exactness has none
        own = {"pillbox": "pillbox-section", "source": "rectangle"}.get(
            self.study)
        if self.geometry not in ("", own):
            raise StudyError(f"geometry: the {self.study} study meshes "
                             f"{own or 'no geometry'}, not {self.geometry!r}")
        if self.study == "source" and not set(self.modes) & set(ACTIVE_MODES):
            raise StudyError(f"modes: the source study has data only for "
                             f"modes {', '.join(map(str, ACTIVE_MODES))}")

    @property
    def materials(self) -> MaterialConstants:
        return MaterialConstants(self.eps, self.mu)


def _parse_target(target: str) -> tuple[str, int, int]:
    """(kind, n, q) of a rate target 'TE,n,q' (n, q >= 1) or 'TM,n,q'
    (n >= 1, q >= 0)."""
    kind, *nums = [t.strip() for t in target.split(",")]
    ok = kind in ("TE", "TM") and len(nums) == 2 and all(
        t.isdigit() for t in nums)
    if ok:
        n, q = int(nums[0]), int(nums[1])
        ok = n >= 1 and q >= (1 if kind == "TE" else 0)
    if not ok:
        raise StudyError(f"target: {target!r} is not TE,n,q (n, q >= 1) "
                         "or TM,n,q (n >= 1, q >= 0)")
    return kind, n, q


@dataclass
class StudyReport:
    config: StudyConfig
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, p, sub, m, dofs, quantity, value, reference=None,
            rel_error=None):
        parity = "" if m in ("", None) else (
            "symmetric" if m > 0 else "antisymmetric")
        self.rows.append({
            "study": self.config.study, "p": p, "subdivisions": sub,
            "m": m if m is not None else "", "parity": parity, "dofs": dofs,
            "quantity": quantity, "value": value,
            "reference": "" if reference is None else reference,
            "rel_error": "" if rel_error is None else rel_error,
            "seconds": "",
        })

    @contextlib.contextmanager
    def phase(self, phase: str, p=None, sub=None, m=None):
        """Time one phase of a study with ``perf_counter``.  On exit, also
        when the body raises, append to ``metadata["phases"]`` the record
        of its phase, p, subdivisions, m (the first mode of the mirror pair
        it serves), seconds, rss_mb (the process's RSS at the phase's end,
        where ``/proc/self/stat`` gives it) and peak_rss_mb (the process's
        peak RSS after the phase); p, subdivisions and m are None where the
        phase serves more than one.  The record is the context value.

        While ``tracemalloc`` traces (``python -X tracemalloc`` or
        PYTHONTRACEMALLOC=1), the phase resets the traced peak on entry,
        and its record also holds alloc_peak_mib, the traced peak during
        the phase, and alloc_mib, the traced size at its end, in MiB;
        otherwise it holds neither.  The reset clears the traced peak of a
        caller that traces around the study.  The traced figures miss
        what C libraries allocate themselves, such as OpenBLAS's buffers."""
        record = {"phase": phase, "p": p, "subdivisions": sub, "m": m}
        traced = tracemalloc.is_tracing()
        if traced:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            yield record
        finally:
            record["seconds"] = time.perf_counter() - start
            rss = _rss_mb()     # first: the peak then includes it
            if rss is not None:
                record["rss_mb"] = rss
            record["peak_rss_mb"] = _peak_rss_mb()
            if traced:
                size, peak = tracemalloc.get_traced_memory()
                record["alloc_peak_mib"] = peak / (1 << 20)
                record["alloc_mib"] = size / (1 << 20)
            self.metadata.setdefault("phases", []).append(record)

    def extend(self, part: StudyReport):
        """Append the rows of ``part``, the report of one task, and extend
        each of this report's metadata lists by ``part``'s."""
        self.rows.extend(part.rows)
        for key, records in part.metadata.items():
            self.metadata.setdefault(key, []).extend(records)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            w.writeheader()
            for row in self.rows:
                w.writerow(row)

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump({"config": asdict(self.config),
                       "metadata": self.metadata,
                       "rows": self.rows}, fh, indent=2, default=str)

    def rate_table(self) -> str:
        lines = ["quantity                      p     rate"]
        for row in self.rows:
            if str(row["quantity"]).startswith("rate"):
                lines.append(f"{row['quantity']:<28}  {row['p']:<4}  "
                             f"{float(row['value']):+.3f}")
        return "\n".join(lines)


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB.  macOS reports
    ``ru_maxrss`` in bytes, Linux in KiB."""
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _rss_mb() -> float | None:
    """Resident set size of this process now, in MB, from the rss field of
    ``/proc/self/stat``; None where that file is missing.  That field is
    the count whose high-water mark ``ru_maxrss`` reports; ``statm`` sums
    the per-CPU counters exactly and can read above the peak."""
    try:
        with open("/proc/self/stat") as fh:
            # the fields after the command name, which may hold spaces
            pages = int(fh.read().rsplit(")", 1)[1].split()[21])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def _build_complex(p: int, sub: int) -> DeRhamComplex2D:
    s = lambda: SplineSpace1D(KnotVector.uniform(p, sub))
    return DeRhamComplex2D(s(), s())


def _sweep(report: StudyReport, task, timed: str, rate=None):
    """Extend ``report`` by ``task(p, sub)``, one mesh's StudyReport, for
    each degree and subdivision, and put the sum of the task's phase seconds
    on its first ``timed`` row.  ``rate = (quantity, key, name)`` ends each
    degree of 3 subdivisions or more with a ``name`` row per m: the rate of
    its ``quantity`` rows' ``key``.  Tasks are partials, which pickle."""
    hs = [1.0 / sub for sub in report.config.subdivisions]
    for p in report.config.degrees:
        first = len(report.rows)
        for sub in report.config.subdivisions:
            part = task(p, sub)
            seconds = sum(r["seconds"] for r in part.metadata["phases"])
            row = next(r for r in part.rows if r["quantity"] == timed)
            row["seconds"] = round(seconds, 3)
            report.extend(part)
        if rate and len(hs) >= 3:
            quantity, key, name = rate
            rows = [r for r in report.rows[first:] if r["quantity"] == quantity]
            for m in dict.fromkeys(r["m"] for r in rows):
                errs = [r[key] for r in rows if r["m"] == m]
                report.add(p, "", m, "", name, convergence_rate(hs, errs))


# ---------------------------------------------------------------------------
# pillbox eigenvalue study
# ---------------------------------------------------------------------------

def _pillbox_reference(config: StudyConfig, spec: PillboxSpec, m: int):
    """The eigs + 1 lowest analytic frequencies of mode m, the number of
    eigenpairs to compute and, with a target, the target's index in the
    sorted spectrum and its frequency, all from one enumeration."""
    eigs = config.eigs
    oracle = pillbox_spectrum(spec, abs(m),
                              max(eigs + 1, 80) if config.target else eigs + 1)
    omegas_ref = np.array([e["omega"] for e in oracle[:eigs + 1]])
    if not config.target:
        return omegas_ref, eigs, None, None
    labels = [(e["kind"], e["n"], e["q"]) for e in oracle]
    target = _parse_target(config.target)
    if target not in labels:
        raise StudyError(f"target: {config.target} is not among the "
                         f"{len(oracle)} lowest analytic modes of m={m}")
    target_idx = labels.index(target)
    return (omegas_ref, max(eigs, target_idx + 1), target_idx,
            oracle[target_idx]["omega"])


def _mirror_pairs(modes) -> list:
    """The signed modes grouped by |m|, each group and the modes in it in
    order of first appearance.  The matrices of modes m and -m are equal
    (they depend on m only through m**2), so one solve serves a group."""
    pairs = {}
    for m in modes:
        pairs.setdefault(abs(m), []).append(m)
    return list(pairs.values())


def run_pillbox_study(config: StudyConfig) -> StudyReport:
    """Per (p, subdivision, m): solve the PEC cavity eigenpencil and compare
    the lowest eigenvalues to the analytic spectrum, index by index after
    sorting.  Emits per-frequency relative errors, a spurious-mode count
    (computed eigenvalues below the (eigs+1)-th analytic frequency that have
    no analytic counterpart within 1%), and, when a target mode and at least
    three subdivisions are given, the fitted convergence rate.

    ``_sweep`` runs each (p, sub) mesh as one task, ``_pillbox_mesh``; this
    runner then sorts the rows mode-major.  All modes share one MeshForms
    per mesh, and modes m and -m share one analytic reference and one
    eigensolve."""
    config.validate()
    report = StudyReport(config)
    spec = PillboxSpec(config.radius, config.length, config.eps, config.mu)
    pairs = _mirror_pairs(config.modes)
    # every reference first, so that a bad target fails before any assembly
    with report.phase("reference") as reference:
        refs = [_pillbox_reference(config, spec, pair[0]) for pair in pairs]
    report.metadata["reference_seconds"] = reference["seconds"]
    geo = pillbox_section(config.radius, config.length)
    rate = ("target_error", "rel_error", "rate_target") if config.target else None
    _sweep(report, functools.partial(_pillbox_mesh, config, geo, pairs, refs),
           "omega_1", rate)
    # mode-major rows; the sort is stable, so (p, sub) order stays in a mode
    report.rows.sort(key=lambda row: config.modes.index(row["m"]))
    report.metadata["peak_rss_mb"] = _peak_rss_mb()
    return report


def _pillbox_mesh(config: StudyConfig, geo, pairs, refs, p: int,
                  sub: int) -> StudyReport:
    """The task of one pillbox mesh: its MeshForms, then each mirror pair's
    ModeSystem, solved through ``_pillbox_pair``.  Returns the mesh's rows,
    ``eig_solves`` entries and phase records.  The solves need only the
    ModeSystem, so the MeshForms dies before the last pair's, and each
    pair's system before the next pair's is built; the mesh's kernel
    certificate goes into each pair's ``eig_solves`` entry."""
    part = StudyReport(config)
    with part.phase("forms", p, sub):
        forms = MeshForms(_build_complex(p, sub), geo, config.materials)
    kernel_residual = forms.kernel_residual
    for i, (pair, ref) in enumerate(zip(pairs, refs)):
        with part.phase("system", p, sub, pair[0]):
            sys_ = build_mode_system(forms, pair[0])
        if i == len(pairs) - 1:
            del forms
        _pillbox_pair(part, sys_, p, sub, pair, ref, kernel_residual)
        del sys_
    return part


def _pillbox_pair(part: StudyReport, sys_, p: int, sub: int, pair: list,
                  ref, kernel_residual: float):
    """Solve one mirror pair's eigenpencil, its ModeSystem ``sys_``, and add
    its ``eig_solves`` entry, phases and rows to ``part``, with the
    certificate ``kernel_residual`` of its mesh.  The pair's factors and
    eigenvectors die on return."""
    config = part.config
    omegas_ref, count, target_idx, target_omega = ref
    K, M, _ = sys_.reduced()
    # K's order: the kernel, the gradients of the free Z^0 DoFs, is left out
    above = K.shape[0]
    if count >= above:    # Lanczos needs one spare vector
        raise StudyError(f"eigs: {count} asked, but the p={p} mesh of "
                         f"{sub}x{sub} elements allows at most "
                         f"{above - 1} for m={pair[0]}")
    with part.phase("solve", p, sub, pair[0]) as solve_phase:
        res = solve_generalized_eig(K, M, count, sys_.G)
    dofs = M.shape[0]
    part.metadata.setdefault("eig_solves", []).append({
        "p": p, "subdivisions": sub, "m": pair[0], "modes": list(pair),
        "n": dofs, "count": count, "kernel_dim": res.num_filtered,
        "gap_ratio": float(res.eigenvalues[0] / res.threshold),
        "kernel_residual": kernel_residual,
        "max_residual": float(res.residuals.max()),
        "factor_nnz": res.factor_nnz,
        "op_applications": res.op_applications,
        "m_products": res.m_products,
        "blas_threads": res.blas_threads,
        "seconds": solve_phase["seconds"]})
    with part.phase("post", p, sub, pair[0]):
        omegas = np.sqrt(res.eigenvalues)
        # spurious scan below the (eigs+1)-th analytic frequency
        below = omegas[omegas < omegas_ref[config.eigs]]
        spurious = 0
        for w in below:
            nearest = np.min(np.abs(omegas_ref - w)) / w
            if nearest > 1e-2:
                spurious += 1
        for m in pair:
            for i in range(config.eigs):
                rel = abs(omegas[i] - omegas_ref[i]) / omegas_ref[i]
                part.add(p, sub, m, dofs, f"omega_{i + 1}", float(omegas[i]),
                         float(omegas_ref[i]), rel)
            part.add(p, sub, m, dofs, "spurious_count", spurious, 0, None)
            if target_idx is not None:
                rel = abs(omegas[target_idx] - target_omega) / target_omega
                part.add(p, sub, m, dofs, "target_error",
                         float(omegas[target_idx]), target_omega, rel)


# ---------------------------------------------------------------------------
# manufactured-solution source study
# ---------------------------------------------------------------------------

def run_source_study(config: StudyConfig) -> StudyReport:
    """Coulomb-gauged magnetostatic solve with the manufactured potential on
    the rectangle [0,1] x [4,5]; Dirichlet at z=5, Neumann on the rest,
    axis at rho=0.  Emits the mode-summed induction error per refinement and
    the fitted rate per degree.

    ``_sweep`` runs each (p, sub) mesh as one task, ``_source_mesh``.  Modes
    m and -m share the factors of one saddle-point solve, with both loads."""
    config.validate()
    report = StudyReport(config)
    with report.phase("derivation"):
        fd_err = validate_derivation(config.gamma, npts=40, seed=config.seed,
                                     materials=config.materials)
    if not fd_err <= 1e-6:
        raise StudyError(
            f"manufactured-derivation validation failed: {fd_err:.2e} > 1e-6")
    report.metadata["derivation_fd_error"] = fd_err
    manufactured = ManufacturedSolution(config.gamma, config.materials)
    geo = BUILTIN_GEOMETRIES["rectangle"]()
    _sweep(report, functools.partial(_source_mesh, config, geo, manufactured),
           "B_error", ("B_error", "value", "rate_B_error"))
    report.metadata["kkt_max_residual_primal"] = max(
        s["residual_primal"] for s in report.metadata["kkt_solves"])
    report.metadata["peak_rss_mb"] = _peak_rss_mb()
    return report


def _source_mesh(config: StudyConfig, geo, manufactured, p: int,
                 sub: int) -> StudyReport:
    """The task of one source mesh: its MeshForms, then each mirror pair
    through ``_source_pair``, then the mesh's gauge and B-error rows.
    Returns the mesh's rows, ``kkt_solves`` entries and phase records; the
    MeshForms dies on return."""
    part = StudyReport(config)
    with part.phase("forms", p, sub):
        forms = MeshForms(_build_complex(p, sub), geo, config.materials)
    err2, gauge = {}, {}
    for pair in _mirror_pairs(config.modes):
        pair_err2, gauge_residual = _source_pair(part, forms, manufactured,
                                                 p, sub, pair)
        err2.update(pair_err2)
        gauge.update(dict.fromkeys(pair, gauge_residual))
    dofs = len(forms.free_z1)
    for m in config.modes:
        part.add(p, sub, m, dofs, "gauge_residual", gauge[m], 0.0)
    err = float(np.sqrt(sum(err2[m] for m in config.modes)))
    part.add(p, sub, "", dofs * len(config.modes), "B_error", err)
    return part


def _source_pair(part: StudyReport, forms: MeshForms, manufactured,
                 p: int, sub: int, pair: list) -> tuple[dict, float]:
    """One saddle-point solve on ``forms`` with the loads of both modes of
    a mirror pair; adds its ``kkt_solves`` entry and phases to ``part`` and
    returns each mode's squared induction error and the gauge residual.
    The pair's ModeSystem, loads, factors and solution die on return."""
    loads = dict(source=manufactured.current, neumann=manufactured.neumann)
    with part.phase("system", p, sub, pair[0]):
        sys_ = build_mode_system(forms, pair[0], **loads)
        K, M, f = sys_.reduced()
        F = np.column_stack([f] + [
            assemble_load(forms, m, **loads)[forms.free_z1]
            for m in pair[1:]])
    with part.phase("solve", p, sub, pair[0]) as solve_phase:
        sol = solve_saddle_point(K, M, F, sys_.G)
    part.metadata.setdefault("kkt_solves", []).append({
        "p": p, "subdivisions": sub, "modes": list(pair),
        "n": M.shape[0], "k": sys_.G.shape[1],
        "kernel_residual": forms.kernel_residual,
        "factor_nnz": sol.factor_nnz,
        "blas_threads": sol.blas_threads,
        "residual_primal": sol.residual_primal,
        "residual_gauge": sol.residual_gauge,
        "seconds": solve_phase["seconds"]})
    err2 = {}
    with part.phase("post", p, sub, pair[0]):
        for m, u_free in zip(pair, sol.u.T):
            u = sys_.expand_z1(u_free)
            # B_h = C u against the closed-form induction
            err2[m] = l2_rho_error(forms, m, 2, forms.complex.C @ u,
                                   manufactured.b) ** 2
    return err2, sol.residual_gauge


# ---------------------------------------------------------------------------
# exactness suite
# ---------------------------------------------------------------------------

def run_exactness_suite(config: StudyConfig) -> StudyReport:
    """Exactness report rows across (p, mesh, m) with pass/fail flags."""
    config.validate()
    report = StudyReport(config)
    _sweep(report, functools.partial(_exactness_mesh, config), "norm_CG")
    report.metadata["peak_rss_mb"] = _peak_rss_mb()
    return report


def _exactness_mesh(config: StudyConfig, p: int, sub: int) -> StudyReport:
    """The task of one exactness mesh.  The matrices of the complex do not
    depend on m: one report serves every mode, its m only a label."""
    from .derham import exactness_report
    part = StudyReport(config)
    with part.phase("exactness", p, sub):
        rep = exactness_report(_build_complex(p, sub))
    dofs = rep["dim_Z1"]
    for m in config.modes:
        part.add(p, sub, m, dofs, "norm_CG", rep["norm_CG"], 0.0)
        part.add(p, sub, m, dofs, "norm_DC", rep["norm_DC"], 0.0)
        for key in ("rank_G", "rank_C", "rank_D", "dim_ker_G", "dim_ker_C",
                    "dim_ker_D"):
            part.add(p, sub, m, dofs, key, rep[key])
        part.add(p, sub, m, dofs, "exact", int(rep["exact"]), 1)
    return part


RUNNERS = {
    "pillbox": run_pillbox_study,
    "source": run_source_study,
    "exactness": run_exactness_suite,
}

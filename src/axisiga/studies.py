"""Benchmark drivers: pillbox eigenvalue study, manufactured-solution source
study, and the exactness suite.  Each returns a StudyReport holding CSV-ready
rows with the schema

    (study, p, subdivisions, m, parity, dofs, quantity, value, reference,
     rel_error, seconds)

Rows are emitted in a stable order so reports are byte-reproducible.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .assembly import (MaterialConstants, MeshForms, assemble_load,
                       build_mode_system, l2_rho_error)
# no study calls pillbox_frequency; perfbench/spans.py traces it by this name
from .bessel import BesselError, PillboxSpec, pillbox_frequency, pillbox_spectrum
from .derham import DeRhamComplex2D
from .geometry import BUILTIN_GEOMETRIES, pillbox_section
from .manufactured import ManufacturedSolution, validate_derivation
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
        if any(m == 0 for m in self.modes):
            raise StudyError("modes: mode 0 is out of scope")
        for i, m in enumerate(self.modes):
            if m in self.modes[:i]:
                raise StudyError(f"modes: duplicate mode {m}")
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
            rel_error=None, seconds=None):
        parity = "" if m in ("", None) else (
            "symmetric" if m > 0 else "antisymmetric")
        self.rows.append({
            "study": self.config.study, "p": p, "subdivisions": sub,
            "m": m if m is not None else "", "parity": parity, "dofs": dofs,
            "quantity": quantity, "value": value,
            "reference": "" if reference is None else reference,
            "rel_error": "" if rel_error is None else rel_error,
            "seconds": "" if seconds is None else round(seconds, 3),
        })

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


def _build_complex(p: int, sub: int) -> DeRhamComplex2D:
    s = lambda: SplineSpace1D(KnotVector.uniform(p, sub))
    return DeRhamComplex2D(s(), s())


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
    three subdivisions are given, the fitted convergence rate.  All modes
    share one MeshForms per mesh, whose build time goes on the first mode;
    modes m and -m share one analytic reference and one eigensolve, whose
    time goes on the first of them."""
    config.validate()
    report = StudyReport(config)
    spec = PillboxSpec(config.radius, config.length, config.eps, config.mu)
    pairs = _mirror_pairs(config.modes)
    # every reference first, so that a bad target fails before any assembly
    t_ref = time.perf_counter()
    refs = [_pillbox_reference(config, spec, pair[0]) for pair in pairs]
    report.metadata["reference_seconds"] = time.perf_counter() - t_ref
    geo = pillbox_section(config.radius, config.length)
    hs = [1.0 / sub for sub in config.subdivisions]
    for p in config.degrees:
        errs = {m: [] for m in config.modes}
        for sub in config.subdivisions:
            t0 = time.perf_counter()
            forms = MeshForms(_build_complex(p, sub), geo, config.materials)
            for pair, ref in zip(pairs, refs):
                omegas_ref, count, target_idx, target_omega = ref
                sys_ = build_mode_system(forms, pair[0])
                A, M, _, _ = sys_.reduced()
                # the kernel is the gradients of the free Z^0 DoFs
                above = A.shape[0] - sys_.G.shape[1]
                if count >= above:    # Lanczos needs one spare vector
                    raise StudyError(f"eigs: {count} asked, but the p={p} "
                                     f"mesh of {sub}x{sub} elements allows "
                                     f"at most {above - 1} for m={pair[0]}")
                t_solve = time.perf_counter()
                res = solve_generalized_eig(A, M, count, sys_.G)
                t1 = time.perf_counter()
                omegas = np.sqrt(res.eigenvalues)
                dofs = A.shape[0]
                report.metadata.setdefault("eig_solves", []).append({
                    "p": p, "subdivisions": sub, "m": pair[0],
                    "modes": list(pair), "n": dofs,
                    "count": count, "kernel_dim": res.num_filtered,
                    "gap_ratio": (float(res.eigenvalues[0] / res.threshold)
                                  if res.threshold else None),
                    "max_residual": float(res.residuals.max()),
                    "factor_nnz": res.factor_nnz,
                    "blas_threads": res.blas_threads,
                    "seconds": t1 - t_solve})
                # spurious scan below the (eigs+1)-th analytic frequency
                below = omegas[omegas < omegas_ref[config.eigs]]
                spurious = 0
                for w in below:
                    nearest = np.min(np.abs(omegas_ref - w)) / w
                    if nearest > 1e-2:
                        spurious += 1
                for m in pair:
                    dt = time.perf_counter() - t0
                    for i in range(config.eigs):
                        rel = abs(omegas[i] - omegas_ref[i]) / omegas_ref[i]
                        report.add(p, sub, m, dofs, f"omega_{i + 1}",
                                   float(omegas[i]), float(omegas_ref[i]),
                                   rel, dt if i == 0 else None)
                    report.add(p, sub, m, dofs, "spurious_count", spurious,
                               0, None)
                    if target_idx is not None:
                        rel = (abs(omegas[target_idx] - target_omega)
                               / target_omega)
                        report.add(p, sub, m, dofs, "target_error",
                                   float(omegas[target_idx]), target_omega,
                                   rel)
                        errs[m].append(rel)
                    t0 = time.perf_counter()  # later modes skip the mesh
        if config.target and len(hs) >= 3:
            for m in config.modes:
                report.add(p, "", m, "", "rate_target",
                           convergence_rate(hs, errs[m]))
    # mode-major rows; the sort is stable, so (p, sub) order stays in a mode
    report.rows.sort(key=lambda row: config.modes.index(row["m"]))
    return report


# ---------------------------------------------------------------------------
# manufactured-solution source study
# ---------------------------------------------------------------------------

def run_source_study(config: StudyConfig) -> StudyReport:
    """Coulomb-gauged magnetostatic solve with the manufactured potential on
    the rectangle [0,1] x [4,5]; Dirichlet at z=5, Neumann on the rest,
    axis at rho=0.  Emits the mode-summed induction error per refinement and
    the fitted rate per degree.  Modes m and -m share one KKT factorization,
    solved with both their loads."""
    config.validate()
    mats = config.materials
    fd_err = validate_derivation(config.gamma, npts=40, seed=config.seed,
                                 materials=mats)
    if not fd_err <= 1e-6:
        raise StudyError(
            f"manufactured-derivation validation failed: {fd_err:.2e} > 1e-6")
    report = StudyReport(config)
    report.metadata["derivation_fd_error"] = fd_err
    manufactured = ManufacturedSolution(config.gamma, mats)
    loads = dict(source=manufactured.current, neumann=manufactured.neumann)
    geo = BUILTIN_GEOMETRIES["rectangle"]()
    kkt_solves = report.metadata["kkt_solves"] = []
    for p in config.degrees:
        errs, hs = [], []
        for sub in config.subdivisions:
            t0 = time.perf_counter()
            cx = _build_complex(p, sub)
            forms = MeshForms(cx, geo, mats)
            err2, gauge = {}, {}
            for pair in _mirror_pairs(config.modes):
                sys_ = build_mode_system(forms, pair[0], **loads)
                A, _, B, f = sys_.reduced()
                F = np.column_stack([f] + [
                    assemble_load(forms, m, **loads)[forms.free_z1]
                    for m in pair[1:]])
                t_solve = time.perf_counter()
                sol = solve_saddle_point(A, B, F)
                kkt_solves.append({
                    "p": p, "subdivisions": sub, "modes": list(pair),
                    "n": A.shape[0], "k": B.shape[1],
                    "residual_primal": sol.residual_primal,
                    "residual_gauge": sol.residual_gauge,
                    "seconds": time.perf_counter() - t_solve})
                for m, u_free in zip(pair, sol.u.T):
                    u = sys_.expand_z1(u_free)
                    # B_h = C u against the closed-form induction
                    err2[m] = l2_rho_error(forms, m, 2, cx.C @ u,
                                           manufactured.b) ** 2
                    gauge[m] = sol.residual_gauge
            dofs = len(forms.free_z1)
            for m in config.modes:
                report.add(p, sub, m, dofs, "gauge_residual", gauge[m], 0.0)
            dt = time.perf_counter() - t0
            err = float(np.sqrt(sum(err2[m] for m in config.modes)))
            report.add(p, sub, "", dofs * len(config.modes), "B_error", err,
                       None, None, dt)
            errs.append(err)
            hs.append(1.0 / sub)
        if len(errs) >= 3:
            report.add(p, "", "", "", "rate_B_error",
                       convergence_rate(hs, errs))
    report.metadata["kkt_max_residual_primal"] = max(
        s["residual_primal"] for s in kkt_solves)
    return report


# ---------------------------------------------------------------------------
# exactness suite
# ---------------------------------------------------------------------------

def run_exactness_suite(config: StudyConfig) -> StudyReport:
    """Exactness report rows across (p, mesh, m) with pass/fail flags."""
    config.validate()
    from .derham import exactness_report
    report = StudyReport(config)
    for p in config.degrees:
        for sub in config.subdivisions:
            # the matrices of the complex do not depend on m: one report
            # serves every mode, its m only a label; its time goes on the
            # first mode's row
            t0 = time.perf_counter()
            rep = exactness_report(_build_complex(p, sub))
            dt = time.perf_counter() - t0
            dofs = rep["dim_Z1"]
            for m in config.modes:
                report.add(p, sub, m, dofs, "norm_CG", rep["norm_CG"], 0.0,
                           None, dt if m == config.modes[0] else None)
                report.add(p, sub, m, dofs, "norm_DC", rep["norm_DC"], 0.0)
                for key in ("rank_G", "rank_C", "rank_D", "dim_ker_G",
                            "dim_ker_C", "dim_ker_D"):
                    report.add(p, sub, m, dofs, key, rep[key])
                report.add(p, sub, m, dofs, "exact", int(rep["exact"]), 1)
    return report


RUNNERS = {
    "pillbox": run_pillbox_study,
    "source": run_source_study,
    "exactness": run_exactness_suite,
}

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
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .assembly import (MaterialConstants, MeshForms, build_mode_system,
                       l2_rho_error)
from .bessel import PillboxSpec, pillbox_frequency, pillbox_spectrum
from .derham import DeRhamComplex2D
from .geometry import BUILTIN_GEOMETRIES, NurbsGeometry, load_geometry, rectangle
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
    geometry: str = ""            # builtin name or geometry file path
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
        if self.eps <= 0 or self.mu <= 0:
            raise StudyError("material constants must be positive")
        if self.eigs < 1:
            raise StudyError("eigs: need at least one eigenvalue")
        if self.target:
            _parse_target(self.target)
        if (self.geometry and self.geometry not in BUILTIN_GEOMETRIES
                and not os.path.isfile(self.geometry)):
            raise StudyError(f"geometry: {self.geometry!r} is neither a "
                             "builtin name nor a file")

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


def _resolve_geometry(config: StudyConfig) -> NurbsGeometry:
    name = config.geometry
    if not name:
        return None
    if name in BUILTIN_GEOMETRIES:
        return BUILTIN_GEOMETRIES[name]()
    return load_geometry(name)


def _build_complex(p: int, sub: int) -> DeRhamComplex2D:
    s = lambda: SplineSpace1D(KnotVector.uniform(p, sub))
    return DeRhamComplex2D(s(), s())


# ---------------------------------------------------------------------------
# pillbox eigenvalue study
# ---------------------------------------------------------------------------

def run_pillbox_study(config: StudyConfig) -> StudyReport:
    """Per (p, subdivision, m): solve the PEC cavity eigenpencil and compare
    the lowest eigenvalues to the analytic spectrum, index by index after
    sorting.  Emits per-frequency relative errors, a spurious-mode count
    (computed eigenvalues below the (eigs+1)-th analytic frequency that have
    no analytic counterpart within 1%), and, when a target mode and at least
    three subdivisions are given, the fitted convergence rate."""
    config.validate()
    report = StudyReport(config)
    spec = PillboxSpec(config.radius, config.length, config.eps, config.mu)
    geo = _resolve_geometry(config)
    if geo is None:
        from .geometry import pillbox_section
        geo = pillbox_section(config.radius, config.length)
    mats = config.materials
    for m in config.modes:
        oracle = pillbox_spectrum(spec, abs(m), config.eigs + 1)
        omegas_ref = np.array([e["omega"] for e in oracle])
        target_idx = None
        target_omega = None
        if config.target:
            kind, n, q = _parse_target(config.target)
            target_omega = pillbox_frequency(kind, abs(m), n, q, spec)
            big = pillbox_spectrum(spec, abs(m), 80)
            target_idx = int(np.argmin(
                [abs(e["omega"] - target_omega) for e in big]))
            if big[target_idx]["omega"] != target_omega:
                raise StudyError(f"target: {config.target} is not among the "
                                 f"{len(big)} lowest analytic modes of m={m}")
        for p in config.degrees:
            errs, hs = [], []
            for sub in config.subdivisions:
                t0 = time.perf_counter()
                cx = _build_complex(p, sub)
                # the temporary MeshForms is freed before the solve
                sys_ = build_mode_system(MeshForms(cx, geo, mats), m)
                A, M, _, _ = sys_.reduced()
                count = (config.eigs if target_idx is None
                         else max(config.eigs, target_idx + 1))
                # the kernel is the gradients of the free Z^0 DoFs
                G = sys_.reduced_gradient()
                above = A.shape[0] - G.shape[1]
                if count >= above:    # Lanczos needs one spare vector
                    raise StudyError(f"eigs: {count} asked, but the p={p} "
                                     f"mesh of {sub}x{sub} elements allows "
                                     f"at most {above - 1} for m={m}")
                t_solve = time.perf_counter()
                res = solve_generalized_eig(A, M, count, G)
                t1 = time.perf_counter()
                omegas = np.sqrt(res.eigenvalues)
                dt = t1 - t0
                dofs = A.shape[0]
                report.metadata.setdefault("eig_solves", []).append({
                    "p": p, "subdivisions": sub, "m": m, "n": dofs,
                    "count": count, "kernel_dim": res.num_filtered,
                    "gap_ratio": (float(res.eigenvalues[0] / res.threshold)
                                  if res.threshold else None),
                    "max_residual": float(res.residuals.max()),
                    "factor_nnz": res.factor_nnz,
                    "seconds": t1 - t_solve})
                for i in range(config.eigs):
                    rel = abs(omegas[i] - omegas_ref[i]) / omegas_ref[i]
                    report.add(p, sub, m, dofs, f"omega_{i + 1}",
                               float(omegas[i]), float(omegas_ref[i]), rel,
                               dt if i == 0 else None)
                # spurious scan below the (eigs+1)-th analytic frequency
                below = omegas[omegas < omegas_ref[config.eigs]]
                spurious = 0
                for w in below:
                    nearest = np.min(np.abs(omegas_ref - w)) / w
                    if nearest > 1e-2:
                        spurious += 1
                report.add(p, sub, m, dofs, "spurious_count", spurious, 0,
                           None)
                if target_idx is not None:
                    rel = abs(omegas[target_idx] - target_omega) / target_omega
                    report.add(p, sub, m, dofs, "target_error",
                               float(omegas[target_idx]), target_omega, rel)
                    errs.append(rel)
                    hs.append(1.0 / sub)
            if target_idx is not None and len(errs) >= 3:
                rate = convergence_rate(hs, errs)
                report.add(p, "", m, "", "rate_target", rate)
    return report


# ---------------------------------------------------------------------------
# manufactured-solution source study
# ---------------------------------------------------------------------------

def run_source_study(config: StudyConfig) -> StudyReport:
    """Coulomb-gauged magnetostatic solve with the manufactured potential on
    the rectangle [0,1] x [4,5]; Dirichlet at z=5, Neumann on the rest,
    axis at rho=0.  Emits the mode-summed induction error per refinement and
    the fitted rate per degree."""
    config.validate()
    mats = config.materials
    fd_err = validate_derivation(config.gamma, npts=40, seed=config.seed,
                                 materials=mats)
    if fd_err > 1e-6:
        raise StudyError(
            f"manufactured-derivation validation failed: {fd_err:.2e} > 1e-6")
    report = StudyReport(config)
    report.metadata["derivation_fd_error"] = fd_err
    manufactured = ManufacturedSolution(config.gamma, mats)
    geo = _resolve_geometry(config)
    if geo is None:
        geo = rectangle(0.0, 1.0, 4.0, 5.0, edge_labels={
            "west": "axis", "east": "neumann",
            "south": "neumann", "north": "dirichlet"})
    primal = 0.0
    for p in config.degrees:
        errs, hs = [], []
        for sub in config.subdivisions:
            t0 = time.perf_counter()
            err2_total = 0.0
            dofs_total = 0
            cx = _build_complex(p, sub)
            forms = MeshForms(cx, geo, mats)
            for m in config.modes:
                sys_ = build_mode_system(
                    forms, m, source=manufactured.current,
                    neumann=manufactured.neumann)
                A, _, B, f = sys_.reduced()
                sol = solve_saddle_point(A, B, f)
                primal = max(primal, sol.residual_primal)
                u = sys_.expand_z1(sol.u)
                # B_h = C u against the closed-form induction
                err2_total += l2_rho_error(forms, m, 2, cx.C @ u,
                                           manufactured.b) ** 2
                dofs_total += A.shape[0]
                report.add(p, sub, m, A.shape[0], "gauge_residual",
                           sol.residual_gauge, 0.0)
            dt = time.perf_counter() - t0
            err = float(np.sqrt(err2_total))
            report.add(p, sub, "", dofs_total, "B_error", err, None, None, dt)
            errs.append(err)
            hs.append(1.0 / sub)
        if len(errs) >= 3:
            report.add(p, "", "", "", "rate_B_error",
                       convergence_rate(hs, errs))
    report.metadata["kkt_max_residual_primal"] = primal
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
            for m in config.modes:
                t0 = time.perf_counter()
                cx = _build_complex(p, sub)
                rep = exactness_report(cx, m)
                dt = time.perf_counter() - t0
                dofs = rep["dim_Z1"]
                report.add(p, sub, m, dofs, "norm_CG", rep["norm_CG"], 0.0,
                           None, dt)
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

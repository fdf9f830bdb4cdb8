"""Command-line surface: `axisiga {pillbox,source,exactness,info}`.

Configuration comes from an optional key=value text file (see README) plus
command-line flag overrides; outputs are a CSV of measurement rows, a JSON
summary and a plain-text rate table.  Exit codes: 0 success, 1 usage or
validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .solve import SolveError
from .studies import RUNNERS, StudyConfig, StudyError

_DEFAULTS = {f.name: f.default for f in fields(StudyConfig)}


def _parse_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise StudyError(f"config file not found: {path}")
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            else:
                key, _, val = line.partition(" ")
            key, val = key.strip(), val.strip()
            if not key or not val:
                raise StudyError(f"{path}:{lineno}: malformed line {raw!r}")
            values[key] = val
    return values


def _coerce(key: str, val: str):
    """val typed as the field's default: a tuple of ints, int, float or str."""
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            return tuple(int(t) for t in val.replace(",", " ").split())
        return type(default)(val)
    except ValueError:
        raise StudyError(f"{key}: malformed value {val!r}") from None


def _make_config(args) -> StudyConfig:
    flags = dict(vars(args))
    study, path = flags.pop("command"), flags.pop("config")
    values = _parse_config_file(path) if path else {}
    values.update((k, v) for k, v in flags.items() if v is not None)
    cfg = StudyConfig(study=study)
    for key, val in values.items():
        if key not in _DEFAULTS:
            raise StudyError(f"config: unknown field {key!r}")
        setattr(cfg, key, _coerce(key, val))
    if cfg.study != study:
        raise StudyError(f"study: the config is for {cfg.study}, not {study}")
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # exit 1 as other input errors, not 2
        raise StudyError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="axisiga",
        description="Fourier-spectral x isogeometric Maxwell benchmarks "
                    "on axisymmetric domains")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
            ("pillbox", "cavity eigenvalue study against analytic frequencies"),
            ("source", "manufactured-solution magnetostatic convergence study"),
            ("exactness", "discrete de Rham exactness suite"),
            ("info", "print version and configuration schema")):
        p = sub.add_parser(name, help=help_)
        if name == "info":
            continue
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--out", dest="out_dir", help="output directory for CSV/JSON")
        p.add_argument("--degrees", help="comma list, e.g. 2,3")
        p.add_argument("--subdivisions", help="comma list, e.g. 4,8,16")
        p.add_argument("--modes", help="comma list of signed modes, e.g. 1,-2")
        p.add_argument("--gamma",
                       help="manufactured-solution regularity parameter")
        p.add_argument("--eigs", help="number of eigenvalues")
        p.add_argument("--geometry",
                       help="the study's own cross-section: pillbox-section "
                            "(pillbox) or rectangle (source)")
        p.add_argument("--target",
                       help="pillbox rate target as kind,n,q (e.g. TE,3,4)")
        p.add_argument("--radius", help="cavity radius (m)")
        p.add_argument("--length", help="cavity length (m)")
        p.add_argument("--seed", help="random seed")
    return ap


_INFO = """axisiga: compatible B-spline discretization of axisymmetric Maxwell problems

subcommands: pillbox, source, exactness (see --help of each)

config file schema (key = value per line, '#' comments):
  study          optional; the subcommand (pillbox | source | exactness)
  geometry       optional; the study's own cross-section: pillbox-section
                 (pillbox) or rectangle (source); exactness takes none
  degrees        comma/space list of spline degrees, e.g. 2,3
  subdivisions   comma/space list of uniform subdivisions, e.g. 4,8,16
  modes          comma/space list of nonzero signed Fourier modes
  eps, mu        material constants (default: vacuum)
  eigs           number of eigenvalues (pillbox)
  target         pillbox rate target, kind,n,q (e.g. TE,3,4)
  gamma          manufactured-solution parameter (source)
  radius, length pillbox cavity (and pillbox-section) size in meters
  seed           random seed recorded in reports
  out_dir        output directory
"""


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "info":
            print(_INFO)
            return 0
        config = _make_config(args)
    except (StudyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report = RUNNERS[args.command](config)
    except (SolveError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:       # StudyError and the layers' input errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = config.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, config.study)
    report.write_csv(base + ".csv")
    report.write_json(base + ".json")
    table = report.rate_table()
    with open(base + "_rates.txt", "w") as fh:
        fh.write(table + "\n")
    print(f"wrote {base}.csv ({len(report.rows)} rows)")
    if table.count("\n"):
        print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())

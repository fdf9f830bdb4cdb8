"""One benchmark sample in a fresh interpreter.

Run by ``run.py``; prints one JSON object on its last stdout line.  The
sample imports axisiga from ``src/`` of the checkout, generates the
workload's inputs from the seed, reports the monotonic time at which the
study runner can be called (the parent subtracts its spawn time to get
``setup_s``), then runs the study, checks the report against its reference
and reports wall time, CPU time, peak RSS and the reference error.  With
``--trace 1`` it also wraps the program's layers and reports per-layer
metrics.  With ``--setup-only`` it stops once the runner can be called.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import axisiga
    expected = os.path.join(ROOT, "src", "axisiga")
    if os.path.dirname(os.path.abspath(axisiga.__file__)) != expected:
        raise ImportError(f"axisiga imported from {axisiga.__file__}, "
                          f"not from {expected}")
    from axisiga import studies
    return studies


def _blas_info() -> list:
    """Name/config and thread count of each OpenBLAS bundled with numpy and
    scipy, queried through ctypes."""
    import ctypes
    import numpy
    import scipy
    out = []
    for pkg in (numpy, scipy):
        libdir = os.path.dirname(pkg.__file__) + ".libs"
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__, "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                                  None)
                if config is not None and threads is not None:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
                    break
            out.append(entry)
    return out


def _git_revision() -> str:
    """Commit of the checkout, read from .git without a subprocess."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    import sympy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": _blas_info(),
        "git_revision": _git_revision(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workload sizes; also run the gate against a "
                         "perturbed reference")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--sample-id", default="sample")
    ap.add_argument("--trace-file", default="")
    args = ap.parse_args(argv)

    studies = _import_program()
    import workloads
    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    workload = table[args.workload]
    config = workload.study_config(args.seed)
    refs = workloads.references(workload, config)
    runner = studies.RUNNERS[config.study]
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    def run_and_check():
        """(report, verdict, traceback); a study that raises fails every
        mode it ran."""
        try:
            report = study(config)
            return report, workloads.check(workload, config, report, refs), None
        except Exception:
            error = traceback.format_exc()
            verdict = workloads.Verdict(attempted=len(config.modes))
            verdict.fail(config.modes, error.strip().splitlines()[-1])
            return None, verdict, error

    tracer = None
    study, sample = runner, run_and_check
    if args.trace:
        import spans
        tracer = spans.Tracer(args.sample_id)
        tracer.install()
        study = tracer.traced(runner, "studies.run")
        sample = tracer.traced(run_and_check, "bench.sample")

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    report, verdict, error = sample()
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "t_ready": t_ready,
        "wall_s": t1 - t0,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,   # ru_maxrss is in KiB on Linux
        "ref_error": verdict.ref_error,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "messages": verdict.messages,
        "modes": list(config.modes),
    }
    if error:
        out["traceback"] = error
    if report is not None:
        out["derivation_fd_error"] = report.metadata.get("derivation_fd_error")
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if args.trace_file:
            tracer.write(args.trace_file)
    if args.smoke and report is not None:
        bad = workloads.check(workload, config, report, refs,
                              perturb=10 * workload.tol)
        out["perturbed_failed"] = bad.failed
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of axisiga's study runners.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each workload (see workloads.py and BENCHMARK.json) is a closed loop: one
client, one process per sample, the next sample started when the previous
one has ended.  Every sample runs ``axisiga.studies.run_pillbox_study`` or
``run_source_study`` in a fresh interpreter, as ``axisiga pillbox|source``
does, with BLAS threads set to the number of usable cores, and checks the
report against its analytic reference.  Samples are started while the
measured time plus the longest sample so far fits in ``--seconds``; at
least one sample (one untraced and one traced with ``--trace 1``) always
runs.

``--trace 0`` reports the end-to-end metrics: medians over the samples of
wall and CPU time of the study call plus its verification, peak RSS of the
sample process, the reference error (the worst sample) and ``setup_s``,
the median time from spawning an interpreter until the runner can be
called, over several set-up-only interpreters and the samples.

A run holds too few samples for ten to lie beyond any percentile, so no
tail percentile is reported; the sample count is printed with the medians.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced ones (medians), the traced and untraced
wall time and their difference, the tracing overhead.  Spans are written
to ``perfbench/out/``.

``--smoke`` runs tiny versions of every workload, traced and untraced, and
checks that every metric named in BENCHMARK.json is emitted with its unit
and that the gate fails against a perturbed reference.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; attempted and failed count mode solves.  The exit code
is 0 when every check passed, 1 when a check failed, 2 on a usage error or
when the program is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 4            # set-up-only interpreters per untraced run
SAMPLE_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402


class SampleError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(args: list, env: dict) -> dict:
    """Run one sample interpreter and return its JSON result, with
    ``setup_s`` measured from the spawn."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, SAMPLE, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=SAMPLE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"sample {' '.join(args)} exited with "
                          f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["t_ready"] - t0
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run samples of one workload for ``seconds`` and aggregate them."""
    env = _child_env()
    base = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        base.append("--smoke")
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_spawn(base + ["--setup-only"], env)["setup_s"])
    untraced, traced, durations = [], [], []
    while True:
        is_traced = trace and len(untraced) > len(traced)
        sample_id = (f"{'smoke-' if smoke else ''}{workload}-seed{seed}-"
                     f"{len(untraced) + len(traced)}")
        args = base + ["--trace", "1" if is_traced else "0",
                       "--sample-id", sample_id]
        if is_traced:
            args += ["--trace-file",
                     os.path.join(OUT_DIR, f"spans-{sample_id}.json.gz")]
        t0 = time.monotonic()
        sample = _spawn(args, env)
        durations.append(time.monotonic() - t0)
        (traced if is_traced else untraced).append(sample)
        if trace and not traced:
            continue
        if time.monotonic() - start + max(durations) > seconds:
            break

    samples = untraced + traced
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "smoke": smoke, "env": samples[0]["env"],
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "messages": sorted({m for s in samples for m in s["messages"]}),
        "n_untraced": len(untraced), "n_traced": len(traced),
    }
    for s in samples:
        s.pop("env")
    result["samples"] = samples
    med = lambda key, group: statistics.median(s[key] for s in group)
    if not trace:
        errors = [s["ref_error"] for s in untraced if math.isfinite(s["ref_error"])]
        result["values"] = {
            "wall_s": med("wall_s", untraced),
            "cpu_s": med("cpu_s", untraced),
            "setup_s": statistics.median(setups + [s["setup_s"] for s in untraced]),
            "peak_rss_mb": med("peak_rss_mb", untraced),
            "ref_error": max(errors, default=0.0),
        }
        result["n_setup"] = len(setups) + len(untraced)
    else:
        values = {k: statistics.median(s["layers"][k] for s in traced)
                  for k in traced[0]["layers"]}
        values["trace.wall_s"] = med("wall_s", traced)
        values["trace.untraced_wall_s"] = med("wall_s", untraced)
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - values["trace.untraced_wall_s"])
        values["trace.self_sum_s"] = sum(
            values[k] for k in set(spans.SELF_TIME_METRICS.values()))
        result["values"] = values
        # tracing must not change the result
        for s in traced:
            for u in untraced:
                a, b = s["ref_error"], u["ref_error"]
                if not abs(a - b) <= 1e-12 * abs(b):
                    result["failed"] += s["attempted"]
                    result["messages"].append(
                        f"traced ref_error {a!r} differs from untraced {b!r}")
    result["correct"] = result["failed"] == 0
    return result


def emitted_metrics(result: dict, spec: list) -> dict:
    """The metrics named in ``spec`` (a BENCHMARK.json list) with units."""
    return {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
            for m in spec}


def _print_report(result: dict, metrics: dict):
    n = result["n_traced"] if result["trace"] else result["n_untraced"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  samples {n}"
          + ("" if result["trace"] else f"  set-ups {result['n_setup']}"))
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:<24.10g} {m['unit']}")
    if result["trace"]:
        layers = {}
        for metric in set(spans.SELF_TIME_METRICS.values()):
            layer = metric.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + result["values"][metric]
        wall = result["values"]["trace.wall_s"]
        print("  self time by layer:")
        for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<14} {t:10.4f} s  {100 * t / wall:5.1f} %")
    for msg in result["messages"]:
        print(f"  check failed: {msg}")
    print("env " + json.dumps(result["env"]))


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def smoke() -> int:
    """Self-check on tiny workloads: every metric of BENCHMARK.json is
    emitted with its unit, the gate passes, and a perturbed reference fails
    it."""
    spec = _load_spec()
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from "
                        f"{list(workloads.WORKLOADS)}")
    for name in workloads.SMOKE:
        for trace in (False, True):
            result = measure(name, seed=0, seconds=0, trace=trace, smoke=True)
            listed = spec["per_layer"] if trace else spec["end_to_end"]
            missing = [m["name"] for m in listed
                       if m["name"] not in result["values"]]
            if missing:
                problems.append(f"{name} trace={int(trace)}: missing {missing}")
                continue
            metrics = emitted_metrics(result, listed)
            _print_report(result, metrics)
            for metric, m in metrics.items():
                v = m["value"]
                if isinstance(v, bool) or not isinstance(v, (int, float)) \
                        or not math.isfinite(v):
                    problems.append(f"{name}: {metric} = {v!r} is not a "
                                    f"finite number")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: gate failed: "
                                f"{result['messages']}")
            for s in result["samples"]:
                if s.get("perturbed_failed") != s["attempted"]:
                    problems.append(f"{name}: perturbed reference passed "
                                    f"the gate ({s.get('perturbed_failed')} "
                                    f"of {s['attempted']} modes failed)")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "axisiga", "studies.py")):
        print(f"error: axisiga sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    spec = _load_spec()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = emitted_metrics(
        result, spec["per_layer"] if args.trace else spec["end_to_end"])
    result["metrics"] = metrics
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    _print_report(result, metrics)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

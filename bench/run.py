"""conemodes benchmark: one workload, measured in fresh processes.

    python3 bench/run.py --workload {sweep,deform,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The package is imported from the
checkout's ``src`` directory only; without it the benchmark exits non-zero
before printing a result.  Scratch files live in ``.bench_work`` inside
the checkout and are removed at the end; a traced run leaves the spans of
its last traced pass in ``.bench_spans``.

Every pass is a fresh interpreter (``child.py``), because CLI users start
one process per command and the package's per-process memo caches would
otherwise make every repeat measure a different program.  Passes run one
after another, one process and one thread at a time, within ``--seconds``;
at least three set-ups are always measured.

``--trace 0`` prints the end-to-end metrics (medians over passes):
setup_s, run_s, peak_rss_mb and accuracy_digits.  ``--trace 1`` pairs an
untraced pass with a traced one and prints the per-layer metrics, medians
over the traced passes, plus ``trace.overhead_s``.  The last line of
standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_spec  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SPANS = os.path.join(ROOT, ".bench_spans")  # last traced pass per workload and seed
CHILD_TIMEOUT = 150.0
MIN_SETUPS = 3

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "accuracy_digits": "digits"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "OMP_", "OPENBLAS_", "MKL_"))}
    env.update({"PYTHONPATH": SRC, "PYTHONHASHSEED": "0",
                "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    return env


def run_child(spec_path: str, k: int, mode: str) -> dict:
    """Start child ``k``, wait for it and return its result record."""
    pass_dir = os.path.join(WORK, f"p{k}")
    os.makedirs(pass_dir)
    result_path = os.path.join(pass_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path,
           result_path]
    spawn_t = time.perf_counter()
    proc = subprocess.Popen(cmd + [repr(spawn_t), mode, str(k)], env=_child_env(),
                            cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} pass exceeded {CHILD_TIMEOUT:.0f} s")
    if code != 0 or not os.path.exists(result_path):
        raise BenchError(f"{mode} pass exited with code {code}")
    with open(result_path) as fh:
        rec = json.load(fh)
    shutil.rmtree(pass_dir)
    return rec


def _prepare():
    if not os.path.isfile(os.path.join(SRC, "conemodes", "cli.py")):
        raise BenchError(f"no conemodes sources under {SRC}")
    # byte-compile once so the first pass does not pay it in setup_s
    if not compileall.compile_dir(SRC, quiet=1):
        raise BenchError("conemodes sources do not compile")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)


def measure(spec: dict, seconds: float, trace: bool) -> dict:
    """Run passes within ``seconds``; return the per-pass records.

    A pass (or, traced, an untraced/traced pair) starts only while the
    slowest one so far would still end before the deadline, so a run
    stays within its budget; the first always runs.
    """
    spec_path = os.path.join(WORK, "spec.json")
    os.makedirs(SPANS, exist_ok=True)
    spec = dict(spec, spans_path=os.path.join(
        SPANS, f"{spec['workload']}-seed{spec['seed']}.jsonl"))
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    passes, traced, setups = [], [], []
    start = time.perf_counter()
    slowest = 0.0
    k = 0
    while not passes or time.perf_counter() + slowest <= start + seconds:
        t0 = time.perf_counter()
        for mode in (("pass", "trace") if trace else ("pass",)):
            rec = run_child(spec_path, k, mode)
            k += 1
            (traced if mode == "trace" else passes).append(rec)
            if mode == "pass":
                setups.append(rec["setup_s"])
        slowest = max(slowest, time.perf_counter() - t0)
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(spec_path, k, "setup")["setup_s"])
        k += 1
    return {"passes": passes, "traced": traced, "setups": setups}


def summarize(runs: dict, trace: bool) -> dict:
    """The result object: operation counts and the metrics for ``trace``."""
    passes = runs["passes"]
    records = passes + runs["traced"]
    failures = [f for rec in records for f in rec["failures"]]
    attempted = sum(rec["attempted"] for rec in records)
    if trace:
        names = list(runs["traced"][0]["layers"])
        metrics = {nm: statistics.median(rec["layers"][nm] for rec in runs["traced"])
                   for nm in names}
        metrics["cli.cpu_s"] = statistics.median(rec["cpu_s"] for rec in passes)
        metrics["trace.overhead_s"] = (
            metrics["trace.run_s"] - statistics.median(rec["run_s"] for rec in passes))
        metrics = {nm: {"value": v, "unit": layer_unit(nm)}
                   for nm, v in metrics.items()}
    else:
        metrics = {
            "setup_s": statistics.median(runs["setups"]),
            "run_s": statistics.median(rec["run_s"] for rec in passes),
            "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in passes),
            "accuracy_digits": min(rec["accuracy_digits"] for rec in passes),
        }
        metrics = {nm: {"value": v, "unit": END_TO_END_UNITS[nm]}
                   for nm, v in metrics.items()}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics,
            "failures": failures}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    special = {"cli.bytes_written": "bytes", "setup.sympy_loaded": "bool",
               "reduction.potential_at.us_per_call": "us",
               "frobenius.nfev_per_integrate": "1/call"}
    if name in special:
        return special[name]
    if name.endswith((".calls", ".rows", ".count")):
        return "count"
    if name.endswith(("_s", ".s")):
        return "s"
    return "1"  # residuals, bounds and condition numbers


def report(spec: dict, runs: dict, summary: dict):
    """Human-readable lines, then the JSON result as the last line."""
    print(f"workload {spec['workload']} seed {spec['seed']}: "
          f"{len(runs['passes'])} passes, {len(runs['traced'])} traced, "
          f"{len(runs['setups'])} set-ups")
    for rec in runs["passes"]:
        print(f"  pass setup_s={rec['setup_s']:.4f} run_s={rec['run_s']:.4f} "
              f"cpu_s={rec['cpu_s']:.4f} peak_rss_mb={rec['peak_rss_mb']:.1f} "
              f"accuracy_digits={rec['accuracy_digits']:.3f} "
              f"check_s={rec['check_s']:.2f}")
    for name, m in summary["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name in summary["failures"][:20]:
        print(f"  FAILED: {name}")
    out = {k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _prepare()
        spec = make_spec(args.workload, args.seed)
        runs = measure(spec, args.seconds, bool(args.trace))
        summary = summarize(runs, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    report(spec, runs, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ``visitsim run-study``: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study-dense --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same kind of studies again under the span tracer and reports the
per-layer metrics (see ``layers.py``).  Each run also checks the program's
outputs: the reference study at the preset's own seed against
``reference/<workload>.csv``, the layout of every timed study's
``estimates.csv``, and byte-identical output for the same seed across worker
counts and with tracing on.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; "attempted" and "failed"
count (replication, model) fits of the timed studies.  A fuller record, with
machine facts and every study's timings, is written under ``.perfbench_out``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
RUN_LIMIT_S = 170.0          # a run must end within 180 s
SETUP_PROBES = 5             # fresh interpreters timed for setup_s
REF_REPS = 4                 # replications in each workload's reference study
TOLERANCE_SE = 1e-3          # allowed |est - ref| and |se - ref|, in units of the reference SE


@dataclass(frozen=True)
class Workload:
    preset: str
    threads: int
    reps: int                # replications per timed study


POOL_THREADS = max(2, len(os.sched_getaffinity(0)))

# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    "study-dense": Workload("jm_g15_l100", 1, 2),
    "study-sparse": Workload("jm_g15_l010", 1, 2),
    "study-gamma": Workload("gamma_lagy", 1, 2),
    "study-pool": Workload("jm_g15_l030", POOL_THREADS, 4 * POOL_THREADS),
}

# name -> unit, in the order printed; the values are measured with tracing off
END_TO_END = {
    "reps_per_s": "1/s",
    "cpu_s_per_rep": "s",
    "fit_conv_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_SETUP_CODE = """\
import os, sys
from importlib import resources
import visitsim.cli
from visitsim.dgm import parse_scenario_text
name = sys.argv[1]
parse_scenario_text(resources.files("visitsim").joinpath(f"presets/{name}.cfg").read_text(), source=name)
print(os.path.abspath(visitsim.cli.__file__))
"""


def child_env(root: str) -> dict:
    """Environment for every process the benchmark starts: the checkout's
    sources, one BLAS/OpenMP thread per process (so pool workers do not
    oversubscribe the cores), and no ``VISITSIM_SEED`` override."""
    env = dict(os.environ)
    env.pop("VISITSIM_SEED", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version()}


def run_child(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; on timeout kill the group (pool workers too)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def measure_setup(root: str, preset: str, env: dict, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that import visitsim.cli and resolve the preset."""
    src = os.path.join(root, "src")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = run_child([sys.executable, "-c", _SETUP_CODE, preset], env, deadline - t0)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0 or not done.stdout.strip().startswith(src + os.sep):
            raise RuntimeError(f"setup probe failed: {done.stderr.strip() or done.stdout.strip()}")
    return times


# --- output checks ----------------------------------------------------------


def read_estimates(path: str) -> dict[tuple[int, str, str], tuple[str, str, str]]:
    """(rep, model, param) -> (est, se, converged) as written, for one estimates.csv."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {(int(r["rep"]), r["model"], r["param"]): (r["est"], r["se"], r["converged"]) for r in rows}


def compare_to_reference(ref: dict, got: dict) -> tuple[float, list[str]]:
    """Worst deviation (in reference-SE units) of converged reference fits, and problems."""
    problems = []
    worst = 0.0
    if set(ref) != set(got):
        problems.append(f"rows differ from the reference: {len(set(ref) ^ set(got))} keys")
    for key, (est, se, conv) in ref.items():
        if conv != "1" or key not in got:
            continue
        g_est, g_se, g_conv = got[key]
        if g_conv != "1":
            problems.append(f"{key} converged in the reference but not now")
            continue
        scale = max(float(se), 1e-12)
        dev = max(abs(float(g_est) - float(est)), abs(float(g_se) - float(se))) / scale
        if not math.isfinite(dev) or dev > TOLERANCE_SE:
            problems.append(f"{key}: est {g_est} se {g_se} vs reference {est} {se}")
        worst = max(worst, dev) if math.isfinite(dev) else math.inf
    return worst, problems


def check_study(study: dict, params: dict[str, set[str]]) -> tuple[int, int, list[str]]:
    """Fits attempted and failed in one timed study, and any layout problems.

    ``params`` holds each model's parameter names, as in the reference."""
    problems = []
    if study["exit"] != 0:
        return 0, 0, [f"{study['dir']}: run-study exited {study['exit']}"]
    for name in ("estimates.csv", "performance.csv", "manifest.json"):
        if not os.path.isfile(os.path.join(study["dir"], name)):
            problems.append(f"{study['dir']}: no {name}")
    if problems:
        return 0, 0, problems
    with open(os.path.join(study["dir"], "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("master_seed") != study["seed"] or manifest.get("replications") != study["reps"]:
        problems.append(f"{study['dir']}: manifest seed/replications do not match the request")
    rows = read_estimates(os.path.join(study["dir"], "estimates.csv"))
    fits: dict[tuple[int, str], set[str]] = {}
    for (rep, model, param), (est, se, conv) in rows.items():
        fits.setdefault((rep, model), set()).add(conv)
        if conv == "1":
            ok = est and se and math.isfinite(float(est)) and math.isfinite(float(se)) and float(se) >= 0
        else:
            ok = conv == "0" and est == "" and se == ""
        if not ok:
            problems.append(f"{study['dir']}: bad row {(rep, model, param)} -> {(est, se, conv)}")
    expected = {(rep, model) for rep in range(1, study["reps"] + 1) for model in params}
    if set(fits) != expected:
        problems.append(f"{study['dir']}: fits {len(fits)} != expected {len(expected)}")
    for (rep, model), flags in fits.items():
        got_params = {p for (r, m, p) in rows if (r, m) == (rep, model)}
        if len(flags) != 1 or got_params != params.get(model):
            problems.append(f"{study['dir']}: rep {rep} model {model} rows are inconsistent")
    failed = sum(1 for flags in fits.values() if flags != {"1"})
    return len(fits), failed, problems


def same_bytes(a: str, b: str) -> bool:
    with open(os.path.join(a, "estimates.csv"), "rb") as fa, \
            open(os.path.join(b, "estimates.csv"), "rb") as fb:
        return fa.read() == fb.read()


# --- one run ----------------------------------------------------------------


def run(workload_name: str, seed: int | None, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measure one workload; returns the JSON result and the fuller record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "visitsim", "cli.py")):
        raise SystemExit("perfbench: run from the root of a visitsim checkout (no src/visitsim here)")
    workload = WORKLOADS[workload_name]
    ref_path = os.path.join(HERE, "reference", f"{workload_name}.csv")
    env = child_env(root)
    facts = machine_facts()
    facts["loadavg_before"] = os.getloadavg()

    setup = []
    if not trace:
        setup = measure_setup(root, workload.preset, env, deadline)

    os.makedirs(OUT_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT_ROOT)
    try:
        cmd = [sys.executable, os.path.join(HERE, "study.py"), "--preset", workload.preset,
               "--threads", str(workload.threads), "--reps", str(workload.reps),
               "--ref-reps", str(REF_REPS), "--seconds", str(seconds), "--trace", str(trace),
               "--out", work]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        done = run_child(cmd, env, deadline - time.perf_counter())
        if done.returncode != 0:
            raise RuntimeError(f"study.py failed ({done.returncode}):\n{done.stderr[-4000:]}")
        with open(os.path.join(work, "study.json")) as fh:
            record = json.load(fh)
        facts["loadavg_after"] = os.getloadavg()
        facts.update(record["versions"])
        if not record["visitsim_file"].startswith(os.path.join(root, "src") + os.sep):
            raise RuntimeError(f"visitsim imported from {record['visitsim_file']}, not this checkout")

        problems = []
        ref = read_estimates(ref_path)
        params: dict[str, set[str]] = {}
        for (_, model, param) in ref:
            params.setdefault(model, set()).add(param)
        for entry in record["reference"]:
            problems += check_study({**entry, "reps": REF_REPS}, params)[2]
        worst, ref_problems = compare_to_reference(
            ref, read_estimates(os.path.join(record["reference"][0]["dir"], "estimates.csv")))
        problems += ref_problems
        by_seed: dict[int, list[str]] = {}
        for entry in record["reference"] + record["studies"]:
            by_seed.setdefault(entry["seed"], []).append(entry["dir"])
        identical = all(same_bytes(dirs[0], d) for dirs in by_seed.values() for d in dirs[1:])
        if not identical:
            problems.append("estimates.csv differs between runs of one seed "
                            "(worker count or tracing changed the output)")

        timed = [s for s in record["studies"] if s["threads"] == workload.threads and not s.get("traced")]
        attempted = failed = 0
        for study in timed:
            a, f, p = check_study(study, params)
            attempted, failed, problems = attempted + a, failed + f, problems + p
        reps = sum(s["reps"] for s in timed)

        if trace:
            metrics = record["layers"]
            self_sum = sum(v for k, v in metrics.items() if k.endswith(".layer_self_s"))
            if abs(self_sum / metrics["trace.wall_s"] - 1.0) > max(metrics["trace.overhead_frac"], 0.01):
                problems.append(f"layer self times sum to {self_sum:.4f} s per replication, "
                                f"traced wall is {metrics['trace.wall_s']:.4f} s")
            units = PER_LAYER
        else:
            rss = record["maxrss_kb"]
            workers = workload.threads if workload.threads > 1 else 0
            metrics = {
                "reps_per_s": statistics.median(s["reps"] / s["wall_s"] for s in timed),
                "cpu_s_per_rep": statistics.median(s["cpu_s"] / s["reps"] for s in timed),
                "fit_conv_frac": (attempted - failed) / attempted if attempted else 0.0,
                "peak_rss_mb": (rss["self"] + workers * rss["children"]) / 1024.0,
                "setup_s": statistics.median(setup),
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {"workload": workload_name, "preset": workload.preset, "threads": workload.threads,
              "seed": record["seed"], "seconds": seconds, "trace": trace, "machine": facts,
              "replications": reps, "timed_studies": len(timed), "reference_worst_dev_se": worst,
              "problems": problems, "setup_s": setup, "studies": [{k: v for k, v in s.items() if k != "dir"}
                                            for s in record["studies"]],
              "result": result}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="default: the preset's seed")
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(OUT_ROOT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{detail['seed']}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    with open(os.path.join(OUT_ROOT, "results", name), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(f"machine {json.dumps(detail['machine'])}")
    print(f"workload {args.workload}: preset {detail['preset']}, {detail['threads']} worker(s), "
          f"seed {detail['seed']}, {detail['replications']} timed replications in "
          f"{detail['timed_studies']} studies")
    print(f"reference check: worst deviation {detail['reference_worst_dev_se']:.3g} reference SEs "
          f"(limit {TOLERANCE_SE:g})")
    for problem in detail["problems"][:10]:
        print(f"FAILED CHECK: {problem}")
    if len(detail["problems"]) > 10:
        print(f"FAILED CHECK: ... and {len(detail['problems']) - 10} more")
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

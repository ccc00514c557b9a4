"""Drive ``visitsim run-study`` in this interpreter and record what it cost.

Run by ``run.py`` in a fresh interpreter whose ``PYTHONPATH`` points at the
checkout's ``src``.  It calls ``visitsim.cli.main`` once per study, times
each call (interpreter start and imports are outside the timing), and writes
one JSON record to ``--out``/``study.json``.  Checking the outputs is left to
``run.py``.

Order of work: the reference study at the preset's own seed (which also
warms lazy imports and caches), then timed studies at seeds drawn from
``--seed`` until ``--seconds`` have passed.  With ``--trace 1`` every timed
study is run untraced with the workload's worker count, untraced in one
process (pool workloads only), and traced in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import time

from tracer import Tracer, add_replication_spans


def _cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children (pool workers)."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def _run(cli, preset: str, seed: int, reps: int, threads: int, out_dir: str) -> dict:
    argv = ["run-study", "--config", preset, "--seed", str(seed), "--reps", str(reps),
            "--threads", str(threads), "--out-dir", out_dir]
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    return {"dir": out_dir, "seed": seed, "reps": reps, "threads": threads, "exit": code,
            "wall_s": wall, "cpu_s": cpu}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--reps", type=int, required=True, help="replications per timed study")
    ap.add_argument("--ref-reps", type=int, required=True, help="replications of the reference study")
    ap.add_argument("--seed", type=int, default=None, help="default: the preset's seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    from importlib import resources

    import numpy
    import scipy
    import visitsim
    import visitsim.cli as cli
    from visitsim.dgm import parse_scenario_text

    text = resources.files("visitsim").joinpath(f"presets/{args.preset}.cfg").read_text()
    scenario, _ = parse_scenario_text(text, source=args.preset)
    seed = scenario.seed if args.seed is None else args.seed
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "visitsim_file": os.path.abspath(visitsim.__file__),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
        "seed": seed,
        "reference": [],
        "studies": [],
    }

    def out(name: str) -> str:
        return os.path.join(args.out, name)

    record["reference"].append(_run(cli, args.preset, scenario.seed, args.ref_reps,
                                    args.threads, out("ref")))
    if args.threads != 1:
        record["reference"].append(_run(cli, args.preset, scenario.seed, args.ref_reps, 1,
                                        out("ref-t1")))

    rng = random.Random(seed)
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        study_seed = rng.getrandbits(32)
        record["studies"].append(_run(cli, args.preset, study_seed, args.reps, args.threads,
                                      out(f"study-{i}")))
        if tracer is not None:
            if args.threads != 1:
                record["studies"].append(_run(cli, args.preset, study_seed, args.reps, 1,
                                              out(f"study-{i}-t1")))
            with tracer:
                traced = _run(cli, args.preset, study_seed, args.reps, 1, out(f"study-{i}-traced"))
            traced["traced"] = True
            record["studies"].append(traced)
        i += 1

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["maxrss_kb"] = {"self": usage_self, "children": usage_children}

    if tracer is not None:
        from layers import layer_metrics

        untraced = [s for s in record["studies"] if s["threads"] == 1 and not s.get("traced")]
        pooled = [s for s in record["studies"] if s["threads"] == args.threads and not s.get("traced")]
        traced = [s for s in record["studies"] if s.get("traced")]
        record["layers"] = layer_metrics(
            add_replication_spans(tracer.spans),
            threads=args.threads,
            traced_wall=sum(s["wall_s"] for s in traced),
            untraced_wall=sum(s["wall_s"] for s in untraced),
            pool_wall=sum(s["wall_s"] for s in pooled),
        )
    with open(out("study.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

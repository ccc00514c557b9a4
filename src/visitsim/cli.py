"""Command-line front end: simulate / fit / run-study / summarize / describe / diagnose.

Every command resolves its scenario from a config file (a path, or the name
of a shipped preset), honors ``--seed`` with the ``VISITSIM_SEED``
environment variable as fallback, writes outputs atomically, and drops a
``manifest.json`` (config hash, resolved configuration, master seed, tool
version) next to them so results can be reproduced from the manifest alone.

Exit codes: 0 success, 1 usage/validation/config errors, 2 numerical
failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .dgm import CONFIG_SCHEMA_HELP, ScenarioConfig, parse_scenario_text, simulate_panel, with_seed
from .domain import MODEL_LABELS, read_panel_csv, write_atomic, write_panel_csv
from .errors import ConfigError, EstimationError, ValidationError, VisitsimError
from .harness import (_MODEL_PARAMS, EstimatesTable, StudyConfig, describe_datasets,
                      diagnose_informativeness, fit_model, run_study, summarize)
from .jointfit import subject_log_contributions

# the shipped presets: the names of the package's presets/*.cfg files
PRESETS = tuple(sorted(entry.name[:-4] for entry in resources.files("visitsim").joinpath("presets").iterdir()
                       if entry.name.endswith(".cfg")))

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_config_path(value: str):
    """A config is either an existing file path or the name of a shipped preset."""
    if os.path.exists(value):
        return value, Path(value).read_bytes()
    name = value[:-4] if value.endswith(".cfg") else value
    if name in PRESETS:
        data = resources.files("visitsim").joinpath(f"presets/{name}.cfg").read_bytes()
        return f"preset:{name}", data
    raise ConfigError(f"config {value!r} not found; presets: {', '.join(PRESETS)}")


def _load_scenario(value: str, seed_override):
    path, data = _resolve_config_path(value)
    config, truths = parse_scenario_text(data.decode(), source=path)
    unknown = sorted(set(truths).difference(*_MODEL_PARAMS.values()))
    if unknown:
        raise ConfigError(f"{path}: [truth] key(s) {', '.join(map(repr, unknown))} name no parameter of any model")
    config = with_seed(config, seed_override)
    sha = hashlib.sha256(data).hexdigest()
    return config, truths, sha


def _seed_from(args) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("VISITSIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"VISITSIM_SEED must be an integer, got {env!r}") from exc
    return None


def _write_manifest(directory, command: str, config_sha: str, config: ScenarioConfig,
                    seed: int, outputs: list[str], extra: dict | None = None) -> None:
    manifest = {
        "tool": "visitsim",
        "version": __version__,
        "command": command,
        "config_sha256": config_sha,
        "config": {k: (v.value if hasattr(v, "value") else v) for k, v in asdict(config).items()},
        "master_seed": seed,
        "outputs": sorted(os.path.basename(o) for o in outputs),
    }
    if extra:
        manifest.update(extra)
    write_atomic(os.path.join(directory, "manifest.json"), json.dumps(manifest, indent=2) + "\n")


def _cmd_simulate(args) -> int:
    config, _, sha = _load_scenario(args.config, _seed_from(args))
    panel = simulate_panel(config, config.seed)
    write_panel_csv(panel, args.out)
    _write_manifest(os.path.dirname(os.path.abspath(args.out)), "simulate", sha, config,
                    config.seed, [args.out])
    print(f"wrote {panel.n_rows} rows for {panel.n_subjects} subjects to {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    if args.dump_loglik and args.model != "A":
        raise ConfigError("--dump-loglik applies to model A only")
    panel = read_panel_csv(args.panel)
    result = fit_model(panel, args.model, args.gh_order)
    result.write_json(args.out)
    if args.dump_loglik:
        params = dict(zip(result.param_names, result.estimates))
        lines = ["subject_id,loglik"]
        for sid, value in subject_log_contributions(params, panel, args.gh_order):
            lines.append(f"{sid},{value!r}")
        write_atomic(args.dump_loglik, "\n".join(lines) + "\n")
    status = "converged" if result.converged else "DID NOT CONVERGE"
    print(f"model {args.model} on {args.panel}: {status}; wrote {args.out}")
    if not result.converged:
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_run_study(args) -> int:
    config, truths, sha = _load_scenario(args.config, _seed_from(args))
    models = tuple(m.strip().upper() for m in args.models.split(",") if m.strip())
    reps = 1000 if args.full and args.reps is None else (args.reps if args.reps is not None else 200)
    study = StudyConfig(
        scenario=config,
        models=models,
        replications=reps,
        threads=args.threads,
        gh_order=args.gh_order,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    table, desc = run_study(study)
    est_path, perf_path, desc_path = (os.path.join(args.out_dir, f"{name}.csv")
                                      for name in ("estimates", "performance", "descriptives"))
    table.write_csv(est_path)
    perf = summarize(table, truths)
    perf.write_csv(perf_path)
    write_atomic(desc_path, desc.to_csv_text())
    _write_manifest(args.out_dir, "run-study", sha, config, config.seed, [est_path, perf_path, desc_path],
                    extra={"models": list(models), "replications": reps, "gh_order": study.gh_order,
                           "truths": truths})
    n_conv = int(table.converged.sum())
    print(f"{config.label}: {reps} replications x {len(models)} models -> {est_path}, {perf_path}, "
          f"{desc_path} ({n_conv}/{len(table)} parameter rows from converged fits)")
    return EXIT_OK


def _cmd_summarize(args) -> int:
    config, truths, sha = _load_scenario(args.config, None)
    table = EstimatesTable.read_csv(args.estimates)
    if len(table) and table.scenario != config.label:
        raise ValidationError(f"{args.estimates} holds study {table.scenario!r}, not the config's {config.label!r}")
    perf = summarize(table, truths)
    perf.write_csv(args.out)
    _write_manifest(os.path.dirname(os.path.abspath(args.out)), "summarize", sha, config,
                    config.seed, [args.out], extra={"estimates": os.path.basename(args.estimates),
                                                    "truths": truths})
    print(f"wrote {len(perf)} performance rows to {args.out}")
    return EXIT_OK


def _cmd_describe(args) -> int:
    config, _, sha = _load_scenario(args.config, _seed_from(args))
    desc = describe_datasets(config, args.reps)
    write_atomic(args.out, desc.to_csv_text())
    _write_manifest(os.path.dirname(os.path.abspath(args.out)), "describe", sha, config,
                    config.seed, [args.out], extra={"replications": args.reps})
    print(f"{desc.scenario}: median rows {desc.rows_median:.0f} "
          f"(IQI {desc.rows_iqi[0]:.0f}-{desc.rows_iqi[1]:.0f}), "
          f"median measurements {desc.measurements_median:.0f}, "
          f"median observed gap {desc.gap_median:.2f} -> {args.out}")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    panel = read_panel_csv(args.panel)
    diag = diagnose_informativeness(panel, covariate=args.covariate,
                                    n_permutations=args.permutations, seed=args.seed or 0)
    write_atomic(args.out, json.dumps(asdict(diag), indent=2) + "\n")
    if diag.applicable:
        print(f"Spearman rho({args.covariate}, gap) = {diag.spearman_rho:.4f} "
              f"(permutation p = {diag.spearman_pvalue:.4f})")
        print(f"Andersen-Gill HR = {diag.ag_hazard_ratio:.4f} "
              f"(95% CI {diag.ag_hr_ci[0]:.4f} - {diag.ag_hr_ci[1]:.4f})")
    else:
        print(f"covariate {args.covariate!r} or the observed gap length is constant; diagnostics not applicable")
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="visitsim",
        description="Simulation and estimation for longitudinal panels with informative visit processes.",
        epilog="Run 'visitsim <command> --help' for per-command options.",
    )
    parser.add_argument("--version", action="version", version=f"visitsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p, with_seed_opt=True):
        p.add_argument("--config", required=True,
                       help="scenario config file, or one of the shipped presets: " + ", ".join(PRESETS))
        if with_seed_opt:
            p.add_argument("--seed", type=int, default=None,
                           help="master seed override (fallback: VISITSIM_SEED, then the config)")

    def add_quadrature(p):
        p.add_argument("--gh-order", type=int, default=25,
                       help="nodes of model A's adaptive Gauss-Hermite rule, 3 to 200 (default 25)")

    p = sub.add_parser("simulate", help="generate one panel CSV from a scenario config",
                       epilog=CONFIG_SCHEMA_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    add_config(p)
    p.add_argument("--out", required=True, help="output panel CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit one model (A-E) to a panel CSV")
    p.add_argument("--panel", required=True, help="panel CSV (columns subject_id,z,censoring_time,visit_time,y)")
    p.add_argument("--model", required=True, choices=MODEL_LABELS)
    p.add_argument("--out", required=True, help="output FitResult JSON path")
    p.add_argument("--dump-loglik", default=None,
                   help="CSV of per-subject log likelihood contributions (model A)")
    add_quadrature(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("run-study", help="simulate and fit K replications of a scenario",
                       epilog=CONFIG_SCHEMA_HELP, formatter_class=argparse.RawDescriptionHelpFormatter)
    add_config(p)
    p.add_argument("--reps", type=int, default=None, help="replications (default 200)")
    p.add_argument("--full", action="store_true", help="full-scale study: 1000 replications")
    p.add_argument("--models", default=",".join(MODEL_LABELS),
                   help=f"comma-separated subset of {','.join(MODEL_LABELS)}")
    p.add_argument("--out-dir", default=".", help="directory for estimates.csv / performance.csv")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: available parallelism; results do not depend on it)")
    add_quadrature(p)
    p.set_defaults(func=_cmd_run_study)

    p = sub.add_parser("summarize", help="performance table from an existing estimates CSV")
    p.add_argument("--estimates", required=True, help="estimates.csv produced by run-study")
    add_config(p, with_seed_opt=False)
    p.add_argument("--out", required=True, help="output performance CSV path")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("describe", help="Table-style descriptives over simulated datasets")
    add_config(p)
    p.add_argument("--reps", type=int, default=200, help="datasets to simulate (default 200)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("diagnose", help="informativeness diagnostics for a panel CSV")
    p.add_argument("--panel", required=True)
    p.add_argument("--covariate", default="z", help="subject covariate (default z)")
    p.add_argument("--permutations", type=int, default=999, help="permutation count for the p-value")
    p.add_argument("--seed", type=int, default=None, help="permutation seed")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValidationError, OSError) as exc:  # an OSError names its path
        print(f"visitsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EstimationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"visitsim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except VisitsimError as exc:
        print(f"visitsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: configuration, orchestration, plot-ready output.

Every command takes one JSON config file as its sole positional argument;
flags exist only to override the seed, worker count, and output directory.
Outputs are plain CSV plus a diagnostics JSON, and every run echoes its
config into the output directory so it can be reproduced exactly.

Exit codes: 0 success, 1 engine or numeric error, 2 input or config error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

# One compute thread per process.  The engine fans out over worker processes
# and makes no threaded BLAS call, so an OpenBLAS pool would only spin on the
# cores the workers need.  This must run before numpy loads (``import mscmc``
# loads no numpy).  A value the caller set wins, and forked workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import bounds
from .ar import ArConfig, ArModel
from .baselines import run_rwm, rwm_step_factor, run_single_chain_gibbs
from .engine import (
    DEFAULT_EXCURSION_CAP,
    CapExceededError,
    WeightError,
    build_initial_distribution,
    coordinate_functions,
    msc_estimate,
    resolve_workers,
)
from .logit import DataFormatError, LogitModel, LogitPosterior, load_heart_dataset
from .rng import CategoricalSampler, derive_stream, sample_polya_gamma_batch

SCHEMA_VERSION = "msc-output-1"

EXIT_OK = 0
EXIT_ENGINE = 1
EXIT_CONFIG = 2

# the most worker processes a run may ask for: a stage forks one per block
MAX_WORKERS = 256


class ConfigError(ValueError):
    """The run configuration is malformed."""


DEFAULTS = {
    "master_seed": 1,
    "n_atoms": 100_000,
    "n_chains": 10_000,
    "excursion_cap": DEFAULT_EXCURSION_CAP,
    "workers": None,
    "out_dir": "msc-out",
}

# the keys each config block accepts; "model" is informational and not read
_BLOCK_KEYS = {
    "ar": {"rho", "d", "h", "r"},
    "logit": {"data_path", "sigma_scale", "h", "r", "standardize"},
    "plan": {"eps", "delta", "dims"},
    "baseline": {"steps", "burn_in", "start", "rwm_scale_override"},
}


def load_config(path: str, overrides: argparse.Namespace) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    # every command accepts the same keys, so one file can serve several
    _check_keys(cfg, {*DEFAULTS, "model", *_BLOCK_KEYS})
    for key, known in _BLOCK_KEYS.items():
        block = cfg.get(key, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config key {key!r} must be an object")
        _check_keys(block, known, prefix=f"{key}.")
    merged = {**DEFAULTS, **cfg}
    if overrides.seed is not None:
        merged["master_seed"] = overrides.seed
    if overrides.workers is not None:
        merged["workers"] = overrides.workers
    if overrides.out is not None:
        merged["out_dir"] = overrides.out
    if not isinstance(merged["out_dir"], str) or not merged["out_dir"]:
        raise ConfigError(
            f"config key 'out_dir' must be a non-empty string (got {merged['out_dir']!r})"
        )
    _validate_numeric(merged, "master_seed", int, low=0, high=2**64 - 1)
    _validate_numeric(merged, "n_atoms", int, low=1)
    _validate_numeric(merged, "n_chains", int, low=2)
    _validate_numeric(merged, "excursion_cap", int, low=1)
    if merged["workers"] is not None:
        _validate_numeric(merged, "workers", int, low=1, high=MAX_WORKERS)
    return merged


def _check_keys(obj: dict, known: set, prefix: str = "") -> None:
    unknown = sorted(set(obj) - known)
    if unknown:
        names = ", ".join(repr(prefix + k) for k in unknown)
        raise ConfigError(f"unknown config key {names} (known: {', '.join(sorted(known))})")


def _number(key: str, val, kind):
    # val as kind; booleans, text, inf, nan and (for int) fractions are rejected
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"config key {key!r} must be a number (got {val!r})")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"config key {key!r} must be finite (got {val!r})")
    if kind is int and int(val) != val:
        raise ConfigError(f"config key {key!r} must be an integer (got {val!r})")
    return kind(val)


def _validate_numeric(cfg: dict, key: str, kind, low=None, high=None) -> None:
    cfg[key] = _number(key, cfg.get(key), kind)
    if low is not None and cfg[key] < low:
        raise ConfigError(f"config key {key!r} must be >= {low}")
    if high is not None and cfg[key] > high:
        raise ConfigError(f"config key {key!r} must be <= {high}")


def _ar_config(cfg: dict) -> ArConfig:
    block = cfg.get("ar", {})
    rho = _number("ar.rho", block.get("rho", 0.9), float)
    d = _number("ar.d", block.get("d", 2), int)
    h = _number("ar.h", block.get("h", 0.49), float)
    r = _number("ar.r", block.get("r", 1.5), float)
    try:
        return ArConfig(rho=rho, d=d, h=h, r=r)
    except ValueError as err:  # ArConfig's messages open with the field's name
        raise ConfigError(f"bad AR parameters: ar.{err}") from None


def _logit_model(cfg: dict) -> LogitModel:
    block = cfg.get("logit", {})
    data_path = block.get("data_path")
    if not isinstance(data_path, str) or not data_path:
        # open() reads an integer as a file descriptor
        raise ConfigError(
            f"config key 'logit.data_path' must be a non-empty string (got {data_path!r})"
        )
    sigma_scale = _number("logit.sigma_scale", block.get("sigma_scale", 10.0), float)
    h = _number("logit.h", block.get("h", 0.49), float)
    r = _number("logit.r", block.get("r", 1.001), float)
    standardize = block.get("standardize", False)
    if not isinstance(standardize, bool):
        raise ConfigError(f"logit.standardize must be true or false (got {standardize!r})")
    if sigma_scale <= 0:
        raise ConfigError("logit.sigma_scale must be positive")
    try:
        dataset = load_heart_dataset(data_path, standardize=standardize, verbose=True)
    except FileNotFoundError:
        raise ConfigError(f"data file not found: {data_path}") from None
    # the config key and value behind each checked value, by the first word
    # of the checks' messages; a degenerate design is the data file's fault
    values = {"h": ("logit.h", h), "r": ("logit.r", r), "Sigma": ("logit.sigma_scale", sigma_scale)}
    try:
        posterior = LogitPosterior(dataset, sigma_scale * np.eye(dataset.d), h=h)
        return LogitModel(posterior, r)
    except ValueError as err:
        key, val = values.get(str(err).split()[0], ("logit.data_path", data_path))
        raise ConfigError(f"{key} = {val!r}: {err}") from None
    except ArithmeticError as err:  # L scales with sigma_scale**2, and R = 1 + rL
        raise ConfigError(f"logit.sigma_scale = {sigma_scale!r}, logit.r = {r!r}: {err}") from None


def _ensure_out(cfg: dict) -> str:
    # make the output directory and echo the config into it
    out = cfg["out_dir"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_taus(path: str, taus: np.ndarray) -> None:
    # excursions.csv in one join: the bytes _write_csv would write for rows
    # [chain, tau], without formatting each cell in Python
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("chain,tau\n" + "".join(f"{m},{t}\n" for m, t in enumerate(taus.tolist())))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_diagnostics(out: str, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(os.path.join(out, "diagnostics.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plan_params(cfg: dict) -> tuple[float, float, list[int]]:
    block = cfg.get("plan", {})
    eps = _number("plan.eps", block.get("eps", 0.1), float)
    delta = _number("plan.delta", block.get("delta", 0.1), float)
    dims = block.get("dims", [1, 5, 10, 15, 20, 25, 30])
    if not isinstance(dims, list) or not dims:
        raise ConfigError(f"config key 'plan.dims' must be a nonempty list (got {dims!r})")
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ConfigError("plan.eps and plan.delta must lie in (0, 1)")
    if delta * eps**2 == 0.0:
        raise ConfigError(
            f"plan.eps = {eps!r}, plan.delta = {delta!r}: the budget delta eps^2 underflows"
        )
    dims = [_number("plan.dims", d, int) for d in dims]
    if min(dims) < 1:
        raise ConfigError(f"config key 'plan.dims' entries must be >= 1 (got {dims!r})")
    return eps, delta, dims


def _sizes_overflow(
    ar: ArConfig, eps: float, delta: float, d: int, R: float, w2: float
) -> ConfigError:
    # over the budget delta eps^2, N grows as w2 R^2 and M as R: name the
    # input whose factor is largest on a log scale
    budget = delta * eps**2
    factors = {
        ("plan.delta", delta, f"the budget delta eps^2 = {budget!r}"): -math.log(delta),
        ("plan.eps", eps, f"the budget delta eps^2 = {budget!r}"): -2.0 * math.log(eps),
        ("ar.h", ar.h, f"w2 = {w2!r}"): math.log(w2),
        ("ar.r", ar.r, f"R = {R!r}"): 2.0 * math.log(R),
    }
    key, val, what = max(factors, key=factors.get)
    return ConfigError(
        f"bad plan parameters: {key} = {val!r} ({what}) overflows the planned sizes "
        f"at plan dimension d = {d}"
    )


def cmd_plan(cfg: dict) -> int:
    ar = _ar_config(cfg)
    eps, delta, dims = _plan_params(cfg)
    rows = []
    for d in dims:
        w2 = None
        try:
            drift, w2 = bounds.ar_drift_constants(ar.rho, d, ar.h, ar.r)
            N, M = bounds.plan_sizes(eps, delta, drift, w2)
        except OverflowError:  # w2 = t^d, or a planned size, leaves float range
            if w2 is None:
                raise ConfigError(
                    f"bad plan parameters: ar.h = {ar.h!r} at plan dimension d = {d}: "
                    "the weight second moment w2 = t^d overflows"
                ) from None
            raise _sizes_overflow(ar, eps, delta, d, drift.R, w2) from None
        except ValueError as err:  # ArConfig and _plan_params checked all but R
            raise ConfigError(
                f"bad plan parameters: ar.r = {ar.r!r} gives the drift radius R = 1 + r d "
                f"at plan dimension d = {d}: {err}"
            ) from None
        except ArithmeticError as err:
            raise ConfigError(f"bad plan parameters: {err}") from None
        rows.append([d, drift.gamma, drift.K, drift.R, drift.effective_rate, w2, N, M])
    header = ["d", "gamma", "K", "R", "gamma_R", "w2", "N_required", "M_required"]
    out = _ensure_out(cfg)
    path = os.path.join(out, "plan.csv")
    _write_csv(path, header, rows)
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return EXIT_OK


def _run_model(cfg: dict, model, names: list[str]) -> int:
    out = _ensure_out(cfg)
    t0 = time.perf_counter()
    atoms = build_initial_distribution(
        model, cfg["n_atoms"], cfg["master_seed"], workers=cfg["workers"]
    )
    if atoms.ess < 2:
        print(
            f"warning: restart ess = {atoms.ess:.2f} of {atoms.N} atoms: one atom holds over "
            "half the weight, so most chains start from that atom",
            file=sys.stderr,
        )
    result = msc_estimate(
        model,
        atoms,
        cfg["n_chains"],
        coordinate_functions(len(names)),
        cfg["master_seed"],
        cap=cfg["excursion_cap"],
        workers=cfg["workers"],
    )
    runtime = time.perf_counter() - t0
    _write_csv(
        os.path.join(out, "estimates.csv"),
        ["function", "estimate", "stderr"],
        [
            [names[j], float(result.estimates[j]), float(result.stderrs[j])]
            for j in range(len(names))
        ],
    )
    _write_taus(os.path.join(out, "excursions.csv"), result.taus)
    _write_diagnostics(
        out,
        {
            "ess": atoms.ess,
            "w2_hat": atoms.w2_hat,
            "skip_fraction": result.skip_fraction,
            "mean_tau": result.mean_tau,
            "p95_tau": result.p95_tau,
            "n_atoms": atoms.N,
            "n_chains": result.M,
            "runtime_seconds": runtime,
            "workers": resolve_workers(cfg["workers"]),
        },
    )
    print(
        f"wrote {out}/estimates.csv ({len(names)} functions), "
        f"mean_tau={result.mean_tau:.3f}, ess={atoms.ess:.1f}, "
        f"runtime={runtime:.1f}s"
    )
    return EXIT_OK


def cmd_run_ar(cfg: dict) -> int:
    config = _ar_config(cfg)
    try:
        model = ArModel(config)
    except ValueError as err:  # ArConfig checked all but the drift radius R
        raise ConfigError(
            f"bad AR parameters: ar.r = {config.r!r} gives the drift radius R = 1 + r d "
            f"at d = {config.d}: {err}"
        ) from None
    except ArithmeticError:  # the weight second moment w2 = t^d, t >= 1
        raise ConfigError(
            f"bad AR parameters: ar.h = {config.h!r} at d = {config.d}: "
            "the weight second moment w2 = t^d overflows"
        ) from None
    names = [f"x{j}" for j in range(config.d)]
    return _run_model(cfg, model, names)


def cmd_run_logit(cfg: dict) -> int:
    model = _logit_model(cfg)
    names = model.posterior.dataset.column_names
    code = _run_model(cfg, model, names)
    _maybe_compare(cfg["out_dir"], names)
    return code


def _baseline_params(cfg: dict) -> tuple[int, int, str, float | None]:
    block = cfg.get("baseline", {})
    steps = _number("baseline.steps", block.get("steps", 100_000), int)
    burn_in = _number("baseline.burn_in", block.get("burn_in", steps // 10), int)
    override = block.get("rwm_scale_override")
    if override is not None:
        override = _number("baseline.rwm_scale_override", override, float)
        if override <= 0:
            raise ConfigError(
                f"config key 'baseline.rwm_scale_override' must be > 0 (got {override!r})"
            )
    if burn_in < 0 or steps - burn_in < 4:
        # batch means need at least two batches of two kept steps
        raise ConfigError("baseline needs burn_in >= 0 and steps - burn_in >= 4")
    start_mode = block.get("start", "atoms")
    if start_mode not in ("atoms", "proposal"):
        raise ConfigError("baseline.start must be 'atoms' or 'proposal'")
    return steps, burn_in, start_mode, override


def _baseline_common(cfg: dict, which: str) -> int:
    steps, burn_in, start_mode, override = _baseline_params(cfg)
    model = _logit_model(cfg)
    posterior = model.posterior
    if override is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            factor = rwm_step_factor(posterior, override)
            finite = np.isfinite(factor @ factor.T).all()
        if not finite:
            raise ConfigError(
                f"config key 'baseline.rwm_scale_override' = {override!r} gives a "
                "random-walk proposal covariance that is not finite"
            )
    out = _ensure_out(cfg)
    t0 = time.perf_counter()

    if start_mode == "atoms":
        atoms = build_initial_distribution(
            model, cfg["n_atoms"], cfg["master_seed"], workers=cfg["workers"]
        )
        stream = derive_stream(cfg["master_seed"], "baseline-start", 0)
        start = atoms.atoms[CategoricalSampler(atoms.norm_weights).sample(stream)]
    else:
        start = model.propose(derive_stream(cfg["master_seed"], "baseline-start", 0))

    if which == "gibbs":
        res = run_single_chain_gibbs(posterior, steps, burn_in, start, cfg["master_seed"])
    else:
        res = run_rwm(
            posterior,
            steps,
            burn_in,
            start,
            cfg["master_seed"],
            scale_override=override,
        )
    runtime = time.perf_counter() - t0
    names = posterior.dataset.column_names
    _write_csv(
        os.path.join(out, f"baseline_{which}.csv"),
        ["coordinate", "mean", "stderr"],
        [[names[j], float(res.mean[j]), float(res.stderr[j])] for j in range(posterior.d)],
    )
    diag = {
        "baseline": which,
        "steps": steps,
        "burn_in": burn_in,
        "runtime_seconds": runtime,
    }
    if res.acceptance_rate is not None:
        diag["acceptance_rate"] = res.acceptance_rate
        print(f"acceptance rate: {res.acceptance_rate:.3f}")
    _write_diagnostics(out, diag)
    _maybe_compare(out, names)
    print(f"wrote {out}/baseline_{which}.csv, runtime={runtime:.1f}s")
    return EXIT_OK


def _maybe_compare(out: str, names: list[str]) -> None:
    """Cross-method report when MSC estimates and baselines share a directory."""
    sources = {}
    for tag, fname in (
        ("msc", "estimates.csv"),
        ("gibbs", "baseline_gibbs.csv"),
        ("rwm", "baseline_rwm.csv"),
    ):
        path = os.path.join(out, fname)
        if os.path.exists(path):
            table = {}
            with open(path, "r", encoding="utf-8") as fh:
                next(fh)
                for line in fh:
                    name, mean, se = line.rsplit(",", 2)
                    table[name] = (float(mean), float(se))
            sources[tag] = table
    if len(sources) < 2:
        return
    tags = list(sources)
    header = ["coordinate"]
    for tag in tags:
        header += [f"{tag}_mean", f"{tag}_stderr"]
    rows = []
    for name in names:
        row: list = [name]
        for tag in tags:
            mean, se = sources[tag].get(name, (math.nan, math.nan))
            row += [mean, se]
        rows.append(row)
    _write_csv(os.path.join(out, "compare.csv"), header, rows)
    print(f"comparison across {', '.join(tags)}:")
    print("  coordinate: " + "  ".join(f"{tag} mean+-2se" for tag in tags))
    for row in rows:
        cells = []
        for k in range(len(tags)):
            mean, se = row[1 + 2 * k], row[2 + 2 * k]
            cells.append(f"{mean:+.4f}+-{2 * se:.4f}")
        print(f"  {row[0]}: " + "  ".join(cells))


def cmd_baseline_gibbs(cfg: dict) -> int:
    return _baseline_common(cfg, "gibbs")


def cmd_baseline_rwm(cfg: dict) -> int:
    return _baseline_common(cfg, "rwm")


def cmd_pg_selftest(cfg: dict) -> int:
    """Quick distributional check of the latent-variable sampler."""
    n = 100_000
    stream = derive_stream(cfg["master_seed"], "pg-selftest", 0)
    ok = True
    for b, target in ((0.0, 0.25), (1.0, math.tanh(0.5) / 2.0)):
        draws = sample_polya_gamma_batch(stream, np.full(n, b))
        err = abs(float(draws.mean()) - target)
        # 5-sigma band on the sample mean
        band = 5.0 * float(draws.std(ddof=1)) / math.sqrt(n)
        status = "ok" if err <= band else "FAIL"
        ok = ok and err <= band
        print(
            f"pg(1, {b:g}): mean={draws.mean():.6f} target={target:.6f} "
            f"tolerance={band:.6f} [{status}]"
        )
    if not ok:
        print("self-test failed")
        return EXIT_ENGINE
    print("self-test passed")
    return EXIT_OK


COMMANDS = {
    "plan": cmd_plan,
    "run-ar": cmd_run_ar,
    "run-logit": cmd_run_logit,
    "baseline-gibbs": cmd_baseline_gibbs,
    "baseline-rwm": cmd_baseline_rwm,
    "pg-selftest": cmd_pg_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msc",
        description="Parallel many-short-chains Monte Carlo estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def _worker_died(err: Exception) -> bool:
    # only a multi-worker stage imports concurrent.futures, so a broken
    # executor's class is looked up there rather than imported by every run
    futures = sys.modules.get("concurrent.futures")
    return futures is not None and isinstance(err, futures.BrokenExecutor)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        return COMMANDS[args.command](cfg)
    except (ConfigError, DataFormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapExceededError, WeightError, MemoryError) as err:
        print(f"engine error: {err}", file=sys.stderr)
        return EXIT_ENGINE
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as err:
        kind = "engine error: a worker process died:" if _worker_died(err) else "numeric error:"
        print(f"{kind} {err}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

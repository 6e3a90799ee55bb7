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


# numpy's largest array dimension: the ceiling of every count
MAX_COUNT = 2**63 - 1


class _Key:
    # a config key's default, its kind (a type, [type] for a list, or a tuple of
    # the allowed values) and the range the CLI owns: closed for an int, open for a float
    def __init__(self, default, kind, low=None, high=None):
        self.default, self.kind, self.low, self.high = default, kind, low, high


# Every config key, top-level and in its block.  A null default means "not
# given".  The models check their own domains (rho, d, h and r in ArConfig, h
# in LogitPosterior, r in LogitModel), so no range here repeats them.
KEYS = {
    "model": _Key(None, ("ar", "logit")),  # informational: no command reads it
    "master_seed": _Key(1, int, 0, 2**64 - 1),
    "n_atoms": _Key(100_000, int, 1, MAX_COUNT),
    "n_chains": _Key(10_000, int, 2, MAX_COUNT),
    "excursion_cap": _Key(DEFAULT_EXCURSION_CAP, int, 1),
    "workers": _Key(None, int, 1, MAX_WORKERS),  # null: the CPUs of the affinity mask
    "out_dir": _Key("msc-out", str),
    "ar.rho": _Key(0.9, float),
    "ar.d": _Key(2, int, high=MAX_COUNT),
    "ar.h": _Key(0.49, float),
    "ar.r": _Key(1.5, float),
    "logit.data_path": _Key(None, str),  # open() would read an int as a descriptor
    "logit.sigma_scale": _Key(10.0, float, 0),
    "logit.h": _Key(0.49, float),
    "logit.r": _Key(1.001, float),
    "logit.standardize": _Key(False, bool),
    "plan.eps": _Key(0.1, float, 0, 1),
    "plan.delta": _Key(0.1, float, 0, 1),
    "plan.dims": _Key([1, 5, 10, 15, 20, 25, 30], [int], 1, MAX_COUNT),
    "baseline.steps": _Key(100_000, int, 1, MAX_COUNT),
    "baseline.burn_in": _Key(None, int, 0),  # null: steps // 10
    "baseline.start": _Key("atoms", ("atoms", "proposal")),
    "baseline.rwm_scale_override": _Key(None, float, 0),  # null: the 2.38^2 / d rule
}
_TOP = [name for name in KEYS if "." not in name]
_BLOCKS = list(dict.fromkeys(name.split(".")[0] for name in KEYS if "." in name))


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
    _check_keys(cfg, {*_TOP, *_BLOCKS})
    # the echo holds every top-level default but the unread model's
    merged = {**{name: KEYS[name].default for name in _TOP if name != "model"}, **cfg}
    flags = {"master_seed": overrides.seed, "workers": overrides.workers, "out_dir": overrides.out}
    merged.update((name, val) for name, val in flags.items() if val is not None)
    merged = {name: _checked(name, val) if name in KEYS else val for name, val in merged.items()}
    # every command checks every block, so one file can serve several
    for block in _BLOCKS:
        _block(merged, block)
    return merged


def _check_keys(obj: dict, known: set, prefix: str = "") -> None:
    unknown = sorted(set(obj) - known)
    if unknown:
        names = ", ".join(repr(prefix + k) for k in unknown)
        raise ConfigError(f"unknown config key {names} (known: {', '.join(sorted(known))})")


def _block(cfg: dict, block: str) -> dict:
    """The checked values of ``block``'s keys, an absent key at its default."""
    given = cfg.get(block, {})
    if not isinstance(given, dict):
        raise ConfigError(f"config key {block!r} must be an object")
    names = {name.split(".")[1]: name for name in KEYS if name.startswith(block + ".")}
    _check_keys(given, set(names), prefix=f"{block}.")
    return {k: _checked(name, given.get(k, KEYS[name].default)) for k, name in names.items()}


def _checked(name: str, val, kind=None, what: str = ""):
    """``val`` as config key ``name``'s kind (or ``kind``), inside its range."""
    key, label = KEYS[name], f"config key {name!r}{what}"
    kind = kind or key.kind
    if val is None and key.default is None:
        return None
    if isinstance(kind, tuple):
        if val not in kind:
            raise ConfigError(f"{label} must be {' or '.join(map(repr, kind))} (got {val!r})")
        return val
    if isinstance(kind, list):
        if not isinstance(val, list) or not val:
            raise ConfigError(f"{label} must be a nonempty list (got {val!r})")
        return [_checked(name, v, kind[0], " entries") for v in val]
    if kind in (str, bool):
        if not isinstance(val, kind) or val == "":
            want = "a non-empty string" if kind is str else "true or false"
            raise ConfigError(f"{label} must be {want} (got {val!r})")
        return val
    # booleans, text, inf, nan and (for int) fractions are not numbers here
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{label} must be a number (got {val!r})")
    if (kind is float or isinstance(val, float)) and not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{label} must be finite (got {val!r})")
    if kind is int and int(val) != val:
        raise ConfigError(f"{label} must be an integer (got {val!r})")
    val = kind(val)
    strict = kind is float
    if key.low is not None and (val <= key.low if strict else val < key.low):
        raise ConfigError(f"{label} must be {'>' if strict else '>='} {key.low}")
    if key.high is not None and (val >= key.high if strict else val > key.high):
        raise ConfigError(f"{label} must be {'<' if strict else '<='} {key.high}")
    return val


def _ar_config(cfg: dict) -> ArConfig:
    try:
        return ArConfig(**_block(cfg, "ar"))
    except ValueError as err:  # ArConfig's messages open with the field's name
        raise ConfigError(f"bad AR parameters: ar.{err}") from None


def _logit_model(cfg: dict) -> LogitModel:
    block = _block(cfg, "logit")
    data_path, sigma_scale, h, r = (block[k] for k in ("data_path", "sigma_scale", "h", "r"))
    if data_path is None:  # the one key without a default that a command needs
        raise ConfigError("config key 'logit.data_path' must be a non-empty string (got None)")
    try:
        dataset = load_heart_dataset(data_path, standardize=block["standardize"], verbose=True)
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
    block = _block(cfg, "plan")
    eps, delta = block["eps"], block["delta"]
    if delta * eps**2 == 0.0:
        raise ConfigError(
            f"plan.eps = {eps!r}, plan.delta = {delta!r}: the budget delta eps^2 underflows"
        )
    return eps, delta, block["dims"]


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


def _ar_drift(ar: ArConfig, d: int, prefix: str, at: str):
    """bounds.ar_drift_constants at dimension d, each error naming its key."""
    try:
        return bounds.ar_drift_constants(ar.rho, d, ar.h, ar.r)
    except ValueError as err:  # ArConfig checked all but the drift radius R
        raise ConfigError(
            f"{prefix}: ar.r = {ar.r!r} gives the drift radius R = 1 + r d {at}: {err}"
        ) from None
    except OverflowError:  # the weight second moment w2 = t^d, t >= 1
        raise ConfigError(
            f"{prefix}: ar.h = {ar.h!r} {at}: the weight second moment w2 = t^d overflows"
        ) from None


def cmd_plan(cfg: dict) -> int:
    ar = _ar_config(cfg)
    eps, delta, dims = _plan_params(cfg)
    rows = []
    for d in dims:
        drift, w2 = _ar_drift(ar, d, "bad plan parameters", f"at plan dimension d = {d}")
        try:
            N, M = bounds.plan_sizes(eps, delta, drift, w2)
        except OverflowError:  # a planned size leaves float range
            raise _sizes_overflow(ar, eps, delta, d, drift.R, w2) from None
        rows.append([d, drift.gamma, drift.K, drift.R, drift.effective_rate, w2, N, M])
    header = ["d", "gamma", "K", "R", "gamma_R", "w2", "N_required", "M_required"]
    out = _ensure_out(cfg)
    _write_csv(os.path.join(out, "plan.csv"), header, rows)
    for row in [header, *rows]:
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
    _ar_drift(config, config.d, "bad AR parameters", f"at d = {config.d}")
    return _run_model(cfg, ArModel(config), [f"x{j}" for j in range(config.d)])


def cmd_run_logit(cfg: dict) -> int:
    model = _logit_model(cfg)
    names = model.posterior.dataset.column_names
    code = _run_model(cfg, model, names)
    _maybe_compare(cfg["out_dir"], names)
    return code


def _baseline_params(cfg: dict) -> tuple[int, int, str, float | None]:
    block = _block(cfg, "baseline")
    steps, burn_in = block["steps"], block["burn_in"]
    burn_in = steps // 10 if burn_in is None else burn_in
    if steps - burn_in < 4:  # batch means need at least two batches of two kept steps
        raise ConfigError(
            f"baseline.steps = {steps!r} and baseline.burn_in = {burn_in!r} keep "
            f"{steps - burn_in} steps; batch means need at least 4"
        )
    return steps, burn_in, block["start"], block["rwm_scale_override"]


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
        res = run_rwm(posterior, steps, burn_in, start, cfg["master_seed"], scale_override=override)
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
        diag["acceptance_rate"] = rate = res.acceptance_rate
        print(f"acceptance rate: {rate:.3f}")
        if rate in (0.0, 1.0):  # a chain stuck at its start, or stepping too short to explore
            print(
                f"warning: random-walk acceptance rate = {rate:.1f} over {steps} steps: every "
                f"step was {'rejected' if rate == 0 else 'accepted'}, so the chain's mean and "
                "stderr do not describe the posterior; change baseline.rwm_scale_override",
                file=sys.stderr,
            )
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

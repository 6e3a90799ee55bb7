#!/usr/bin/env python3
"""SHA-256 of each config's outputs and restart stage at 1 and 2 workers.

Usage: python scripts/output_hashes.py [--against FILE] [CONFIG ...]

Runs ``msc run-ar`` or ``msc run-logit`` (chosen by the config's ``model``
key) from this checkout's ``src`` in the repository root, at 1 and at 2
workers, each into a temporary directory, and prints one line per output
file: ``<sha256>  <config> workers=<w> <file>``.  It then builds the
config's restart distribution in-process (``build_initial_distribution`` at
the config's seed and N) at 1 and at 2 workers and prints the SHA-256 of its
atoms and of its normalized weights, as ``atoms`` and ``weights`` lines (at
ess = 1 the output files cannot show whether the atoms moved), and the
``repr`` of its ``ess`` and ``w2_hat``, which the CSVs round.  A config
path is read from the current directory; a relative ``logit.data_path``
inside it is read from the repository root.  With no arguments it runs the
three shipped run configs.  Exits 1 when the two worker counts give a file
or a restart value different bytes, or when a run fails.

Run it on two checkouts to compare their outputs byte for byte: save one
checkout's listing (``> before.txt``) and run the other with ``--against
before.txt``.  It then also exits 1 when its lines differ from the saved ones,
and reports on stderr which lines differ or that all of them match.
"""
from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mscmc import cli  # noqa: E402  (this checkout's package)
from mscmc.ar import ArModel  # noqa: E402
from mscmc.engine import build_initial_distribution  # noqa: E402

DEFAULT_CONFIGS = ["configs/ar_desk.json", "configs/logit_desk.json", "configs/ar_paper_scale.json"]
OUTPUTS = ("estimates.csv", "excursions.csv")
RESTART = ("atoms", "weights", "ess", "w2_hat")
COMMANDS = {"ar": "run-ar", "logit": "run-logit"}


def config_model(config: str) -> str:
    """The config's ``model`` key, one of COMMANDS."""
    with open(config, encoding="utf-8") as fh:
        model = json.load(fh).get("model")
    if model not in COMMANDS:
        sys.exit(f"{config}: model must be one of {sorted(COMMANDS)} (got {model!r})")
    return model


def run_hashes(config: str, workers: int) -> list[str]:
    """The SHA-256 of each of OUTPUTS after one run of ``config``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "mscmc.cli", COMMANDS[config_model(config)]]
        cmd += [os.path.abspath(config), "--workers", str(workers), "--out", out]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{config} at {workers} workers exited {proc.returncode}:\n{proc.stderr}")
        hashes = []
        for name in OUTPUTS:
            with open(os.path.join(out, name), "rb") as fh:
                hashes.append(hashlib.sha256(fh.read()).hexdigest())
        return hashes


def restart_hashes(config: str) -> dict[int, list[str]]:
    """The SHA-256 of the restart atoms and normalized weights of ``config``'s
    run and the repr of its ess and w2_hat, built in-process at 1 and at 2
    workers."""
    path = os.path.abspath(config)
    cwd = os.getcwd()
    os.chdir(ROOT)  # where the run reads a relative data path
    try:
        cfg = cli.load_config(path, argparse.Namespace(seed=None, workers=None, out=None))
        with contextlib.redirect_stdout(io.StringIO()):  # the data loader's summary
            if config_model(path) == "logit":
                model = cli._logit_model(cfg)
            else:
                model = ArModel(cli._ar_config(cfg))
    except cli.ConfigError as err:
        sys.exit(f"{config}: {err}")
    finally:
        os.chdir(cwd)
    hashes = {}
    for w in (1, 2):
        dist = build_initial_distribution(model, cfg["n_atoms"], cfg["master_seed"], workers=w)
        hashes[w] = [hashlib.sha256(a).hexdigest() for a in (dist.atoms, dist.norm_weights)]
        hashes[w] += [repr(dist.ess), repr(dist.w2_hat)]
    return hashes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", metavar="CONFIG")
    parser.add_argument("--against", metavar="FILE", help="a saved listing to compare with")
    args = parser.parse_args(argv)
    saved = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            saved = fh.read().splitlines()
    configs = args.configs
    if not configs:
        os.chdir(ROOT)  # the shipped configs' paths are relative to the root
        configs = DEFAULT_CONFIGS
    status = 0
    lines = []

    def emit(line: str) -> None:
        lines.append(line)
        print(line)

    for config in configs:
        for names, by_workers in (
            (OUTPUTS, {w: run_hashes(config, w) for w in (1, 2)}),
            (RESTART, restart_hashes(config)),
        ):
            for w, hashes in by_workers.items():
                for name, digest in zip(names, hashes):
                    emit(f"{digest}  {config} workers={w} {name}")
            moved = [n for n, a, b in zip(names, by_workers[1], by_workers[2]) if a != b]
            if moved:
                emit(f"{config}: {' and '.join(moved)} differ between 1 and 2 workers")
                status = 1
    if saved is not None:
        diff = list(
            difflib.unified_diff(saved, lines, args.against, "this checkout", lineterm="", n=0)
        )
        for line in diff:
            print(line, file=sys.stderr)
        if diff:
            status = 1
        else:
            print(f"all {len(lines)} lines match {args.against}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

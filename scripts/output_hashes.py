#!/usr/bin/env python3
"""SHA-256 of each config's estimates.csv and excursions.csv at 1 and 2 workers.

Usage: python scripts/output_hashes.py [CONFIG ...]

Runs ``msc run-ar`` or ``msc run-logit`` (chosen by the config's ``model``
key) from this checkout's ``src`` in the repository root, at 1 and at 2
workers, each into a temporary directory, and prints one line per output
file: ``<sha256>  <config> workers=<w> <file>``.  A config path is read
from the current directory; a relative ``logit.data_path`` inside it is read
from the repository root.  With no arguments it runs the three shipped run
configs.  Exits 1 when the two worker counts give a file different bytes,
or when a run fails.

Run it on two checkouts to compare their outputs byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_CONFIGS = ["configs/ar_desk.json", "configs/logit_desk.json", "configs/ar_paper_scale.json"]
OUTPUTS = ("estimates.csv", "excursions.csv")
COMMANDS = {"ar": "run-ar", "logit": "run-logit"}


def run_hashes(config: str, workers: int) -> list[str]:
    """The SHA-256 of each of OUTPUTS after one run of ``config``."""
    with open(config, encoding="utf-8") as fh:
        model = json.load(fh).get("model")
    if model not in COMMANDS:
        sys.exit(f"{config}: model must be one of {sorted(COMMANDS)} (got {model!r})")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "mscmc.cli", COMMANDS[model], os.path.abspath(config)]
        cmd += ["--workers", str(workers), "--out", out]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{config} at {workers} workers exited {proc.returncode}:\n{proc.stderr}")
        hashes = []
        for name in OUTPUTS:
            with open(os.path.join(out, name), "rb") as fh:
                hashes.append(hashlib.sha256(fh.read()).hexdigest())
        return hashes


def main(configs: list[str]) -> int:
    if not configs:
        os.chdir(ROOT)  # the shipped configs' paths are relative to the root
        configs = DEFAULT_CONFIGS
    status = 0
    for config in configs:
        by_workers = {w: run_hashes(config, w) for w in (1, 2)}
        for w, hashes in by_workers.items():
            for name, digest in zip(OUTPUTS, hashes):
                print(f"{digest}  {config} workers={w} {name}")
        if by_workers[1] != by_workers[2]:
            print(f"{config}: outputs differ between 1 and 2 workers")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

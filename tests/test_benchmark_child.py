"""The benchmark's child modes still run against this checkout.

``perfbench/child.py micro`` calls one-row library names (``propose``,
``log_weight``, ``kernel_step``, ``f_value``, ``rekey``, the logit proposal
and Gibbs step, the streamed Polya-Gamma batch) that only a per-layer
benchmark run reaches, and ``traced`` wraps names that ``mscmc.cli``
imports (``ArModel``, ``LogitModel``, ``LogitPosterior``,
``load_heart_dataset``), so this runs them, and ``setup``, in a subprocess.
Only the exit code and the result keys are checked, never a rate.
"""
import json
import os
import subprocess
import sys

import pytest

from conftest import HEART_PATH, REPO_ROOT

CHILD = os.path.join(REPO_ROOT, "perfbench", "child.py")
MICRO_KEYS = {
    "rng.rekey_per_s",
    "ar.atoms_per_s",
    "ar.steps_per_s",
    "logit.setup_s",
    "logit.atoms_per_s",
    "logit.gibbs_steps_per_s",
    "rng.pg_draws_per_s",
    "rng.pg_words_per_draw",
    "baselines.gibbs_steps_per_s",
    "baselines.rwm_steps_per_s",
}


def _run_child(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, CHILD, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_setup_mode_builds_the_model():
    proc = _run_child("setup", os.path.join("configs", "ar_desk.json"))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "model, block",
    [
        ("ar", {"ar": {"rho": 0.9, "d": 2, "h": 0.49, "r": 1.5}}),
        ("logit", {"logit": {"data_path": HEART_PATH}}),
    ],
)
def test_traced_mode_runs(tmp_path, model, block):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": model, "n_atoms": 500, "n_chains": 50, "out_dir": "out", **block})
    )
    spans = tmp_path / "spans.json"
    out = tmp_path / "out"
    proc = _run_child("traced", str(spans), f"run-{model}", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "estimates.csv").exists()
    assert json.loads(spans.read_text())


def test_micro_mode_writes_every_key(tmp_path):
    out = tmp_path / "micro.json"
    proc = _run_child("micro", str(out), "1", HEART_PATH)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(out.read_text())) == MICRO_KEYS

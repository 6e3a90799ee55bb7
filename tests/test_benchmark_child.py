"""The benchmark's child modes still run against this checkout.

``perfbench/child.py micro`` calls one-row library names (``propose``,
``log_weight``, ``kernel_step``, ``f_value``, ``rekey``, the logit proposal
and Gibbs step, the streamed Polya-Gamma batch) that only a per-layer
benchmark run reaches, so this runs it, and ``setup``, in a subprocess.
Only the exit code and the result keys are checked, never a rate.
"""
import json
import os
import subprocess
import sys

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


def test_micro_mode_writes_every_key(tmp_path):
    out = tmp_path / "micro.json"
    proc = _run_child("micro", str(out), "1", HEART_PATH)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(out.read_text())) == MICRO_KEYS

"""The benchmark's workloads and the run configs it generates for them.

Each workload is one `msc` subcommand on one config shape.  The config is
generated from the benchmark's ``--seed`` (it becomes ``master_seed``); the
program only ever sees the generated file.  Sizes are two fifths of the
shipped configs they mirror, so a run takes 4-6 s on a 2-core machine
and a measured window holds several runs.  The ratios that decide which
layer dominates (N/M, d, worker count) are the shipped ones.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # msc subcommand
    workers: int  # worker count of the timed runs
    n_atoms: int
    n_chains: int
    model: dict = field(default_factory=dict)  # the "ar" or "logit" block

    @property
    def kind(self) -> str:
        return "ar" if self.command == "run-ar" else "logit"

    @property
    def other_workers(self) -> int:
        """Worker count of the run that checks byte identity against the timed runs."""
        return 1 if self.workers == 2 else 2


HEART_DATA = Path("data") / "synthetic-cleveland.data"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ar-paper",
            why=(
                "AR d=2 with N = 10 M (configs/ar_paper_scale.json shape) on 2 workers: "
                "restart stage (rekey, propose, log-weight, alias build) dominates"
            ),
            command="run-ar",
            workers=2,
            n_atoms=400_000,
            n_chains=40_000,
            model={"rho": 0.9, "d": 2, "h": 0.49, "r": 1.5},
        ),
        Workload(
            name="ar-wide",
            why=(
                "AR d=16 with N = M on 1 worker: excursions (kernel step, 16 test "
                "functions per step) dominate; pool bypassed, the fan-out control"
            ),
            command="run-ar",
            workers=1,
            n_atoms=60_000,
            n_chains=60_000,
            model={"rho": 0.9, "d": 16, "h": 0.49, "r": 1.5},
        ),
        Workload(
            name="logit-heart",
            why=(
                "configs/logit_desk.json shape on the heart data, 2 workers: the only "
                "Polya-Gamma Gibbs path; restart weights collapse by construction"
            ),
            command="run-logit",
            workers=2,
            n_atoms=40_000,
            n_chains=4_000,
            model={
                "data_path": str(HEART_DATA),
                "sigma_scale": 10.0,
                "h": 0.49,
                "r": 1.001,
                "standardize": False,
            },
        ),
    )
}


def make_config(workload: Workload, seed: int, root: Path, out_dir: Path) -> dict:
    """The run config for ``workload`` at ``seed``.

    Paths are absolute (the data file resolved against the checkout root
    ``root``), so the CLI can run from any working directory.
    """
    block = dict(workload.model)
    if workload.kind == "logit":
        block["data_path"] = str((root / block["data_path"]).resolve())
    return {
        "model": workload.kind,
        "master_seed": int(seed),
        "n_atoms": workload.n_atoms,
        "n_chains": workload.n_chains,
        "workers": workload.workers,
        "out_dir": str(out_dir),
        workload.kind: block,
    }


def write_config(cfg: dict, path: Path) -> Path:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path

"""Correctness checks applied to every run the benchmark times.

Each check returns ``None`` when the output passes and a one-line reason
when it does not, so the caller can count the failure and report why.
"""
from __future__ import annotations

import math
from pathlib import Path

IDENTICAL_FILES = ("estimates.csv", "excursions.csv")


def read_estimates(path: Path) -> list[tuple[str, float, float]]:
    """Rows of ``estimates.csv``: (function, estimate, stderr)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "function,estimate,stderr":
        raise ValueError(f"{path.name}: unexpected header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        name, est, se = line.rsplit(",", 2)
        rows.append((name, float(est), float(se)))
    if not rows:
        raise ValueError(f"{path.name}: no estimates")
    return rows


def check_finite(rows: list[tuple[str, float, float]]) -> str | None:
    for name, est, se in rows:
        if not (math.isfinite(est) and math.isfinite(se)):
            return f"non-finite estimate or stderr for {name}: {est!r} +- {se!r}"
    return None


def check_ar_target(
    rows: list[tuple[str, float, float]], n_atoms: int, n_chains: int, k: float = 5.0
) -> str | None:
    """Every coordinate within k * stderr * sqrt(1 + M/N) of the AR target 0.

    The invariant law of the AR chain is N(0, I).  The CLI's stderrs are
    conditional on the restart atoms, so the restart stage's own error,
    of relative size M/N, widens the band by sqrt(1 + M/N).
    """
    widen = math.sqrt(1.0 + n_chains / n_atoms)
    for name, est, se in rows:
        z = abs(est) / (se * widen)
        if not z <= k:
            return f"{name} = {est!r} is {z:.2f} widened stderrs from the target 0 (limit {k})"
    return None


def check_identical(a: Path, b: Path, names=IDENTICAL_FILES) -> str | None:
    """The named output files of run directories ``a`` and ``b`` match byte for byte."""
    for name in names:
        da, db = (a / name).read_bytes(), (b / name).read_bytes()
        if da != db:
            at = next(
                (i for i, (x, y) in enumerate(zip(da, db)) if x != y), min(len(da), len(db))
            )
            return f"{name} differs between {a.name} and {b.name} at byte {at}"
    return None

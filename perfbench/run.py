#!/usr/bin/env python3
"""Benchmark of the `msc` CLI: end-to-end runs, a traced run and layer microbenchmarks.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each timed run is a fresh ``python3 -m mscmc.cli``
process on a config generated from ``--seed`` (closed loop, one run at a
time).  With ``--trace 0`` the last stdout line is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
from one traced run plus microbenchmarks.  Every run's output is checked
(see gate.py); the exit code is 1 when any check fails and 2 when the
program or its inputs are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from gate import check_ar_target, check_finite, check_identical, read_estimates  # noqa: E402
from spans import Span, self_times  # noqa: E402
from workloads import HEART_DATA, WORKLOADS, Workload, make_config, write_config  # noqa: E402

SETUP_PROBES = 5  # fresh set-up processes per invocation, warmed by the identity run
# Median time of calibrate.py on a shared 2-core x86-64 VM (Python 3.11,
# numpy 2.4) in its fast phase.  run_s and cpu_s are scaled by CAL_REF_S /
# (median calibration time of the same invocation): that VM's CPU speed flips
# between two levels about 1.8x apart for seconds to minutes at a time, and
# the scaling takes that drift out of comparisons made at different times.
CAL_REF_S = 0.54
MIN_TIMED_RUNS = 3
CHILD_TIMEOUT_S = 60.0
DEADLINE_S = 165.0  # every child of one invocation ends within this many seconds


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str  # which end-to-end metric it should move, on which workload
    bound: float | None = None  # end-to-end only


END_TO_END = [
    Metric("run_s", "s", "lower", "median wall time of one msc process, speed-scaled", 0.24),
    Metric("cpu_s", "s", "lower", "median user+sys of the process tree, speed-scaled", 0.24),
    Metric("peak_rss_mb", "MB", "lower", "median peak resident memory (wait4)", 0.1),
    Metric("setup_s", "s", "lower", "median fresh import + config + ModelBundle", 0.25),
    Metric("ok_frac", "ratio", "higher", "1 - failed_frac over every process started", 0.05),
]

PER_LAYER = [
    Metric("rng.rekey_per_s", "calls/s", "higher", "run_s, cpu_s on ar-paper, ar-wide"),
    Metric("rng.sampler_build_s", "s", "lower", "run_s on ar-paper (serial in parent)"),
    Metric("rng.pg_draws_per_s", "draws/s", "higher", "run_s on logit-heart"),
    Metric("rng.pg_words_per_draw", "words", "lower", "run_s on logit-heart (rejection waste)"),
    Metric("ar.atoms_per_s", "atoms/s", "higher", "run_s on ar-paper"),
    Metric("ar.steps_per_s", "steps/s", "higher", "run_s on ar-wide"),
    Metric("logit.atoms_per_s", "atoms/s", "higher", "run_s on logit-heart"),
    Metric("logit.gibbs_steps_per_s", "steps/s", "higher", "run_s on logit-heart"),
    Metric("logit.setup_s", "s", "lower", "setup_s on logit-heart"),
    Metric("cli.setup_s", "s", "lower", "run_s, setup_s (traced setup span, self)"),
    Metric("engine.restart_s", "s", "lower", "run_s on ar-paper >> logit-heart > ar-wide"),
    Metric("engine.restart_atoms_per_s", "atoms/s", "higher", "run_s on ar-paper"),
    Metric("engine.excursions_s", "s", "lower", "run_s on ar-wide >> logit-heart > ar-paper"),
    Metric("engine.chains_per_s", "chains/s", "higher", "run_s on ar-wide"),
    Metric("engine.kernel_steps_per_s", "steps/s", "higher", "run_s on ar-wide"),
    Metric("engine.cpu_util", "ratio", "higher", "run_s on ar-paper, logit-heart"),
    Metric("engine.ess_frac", "ratio", "higher", "none: restart health"),
    Metric("engine.w2_hat", "ratio", "lower", "none: restart health"),
    Metric("engine.started_frac", "ratio", "higher", "none: excursion waste"),
    Metric("engine.mean_tau", "steps", "lower", "none: excursion length"),
    Metric("engine.max_tau", "steps", "lower", "none: headroom below the cap"),
    Metric("cli.residual_s", "s", "lower", "run_s on ar-wide, ar-paper (CSV write)"),
    Metric("cli.output_bytes", "bytes", "lower", "run_s on ar-wide, ar-paper"),
    Metric("baselines.gibbs_steps_per_s", "steps/s", "higher", "none: control"),
    Metric("baselines.rwm_steps_per_s", "steps/s", "higher", "none: control"),
    Metric("trace.overhead_ratio", "ratio", "lower", "none: traced / untraced run_s"),
]


@dataclass
class Child:
    """One finished child process, measured with os.wait4."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    log: Path


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], log: Path, cwd: Path, timeout: float) -> Child:
    """Run ``argv`` to completion; past ``timeout`` seconds its process group is killed.

    The child leads its own process group, so pool workers die with it.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=fh, stderr=subprocess.STDOUT, cwd=cwd, env=_child_env(),
            start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=wall >= timeout,
        log=log,
    )


def _log_tail(log: Path, lines: int = 3) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


@dataclass
class Outcome:
    """Counts, samples and reasons gathered over one workload invocation."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def child_ok(self, what: str, child: Child) -> bool:
        self.attempted += 1
        if child.timed_out:
            self.failures.append(f"{what}: timed out after {child.wall_s:.1f} s")
        elif child.code != 0:
            self.failures.append(f"{what}: exit {child.code}: {_log_tail(child.log)}")
        else:
            return True
        return False

    def fail(self, what: str, reason: str) -> None:
        self.failures.append(f"{what}: {reason}")

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)


def check_outputs(w: Workload, out: Path, reference: Path | None) -> str | None:
    """The gate every msc run passes: finite estimates, the AR target, byte identity."""
    try:
        rows = read_estimates(out / "estimates.csv")
    except (OSError, ValueError) as err:
        return f"unreadable estimates: {err}"
    reason = check_finite(rows)
    if reason is None and w.kind == "ar":
        reason = check_ar_target(rows, w.n_atoms, w.n_chains)
    if reason is None and reference is not None:
        try:
            reason = check_identical(reference, out)
        except OSError as err:
            reason = f"missing output: {err}"
    return reason


def run_health(w: Workload, out: Path) -> dict[str, float]:
    """Restart and excursion health of one run, from its own output files."""
    diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    taus = [int(line.rsplit(",", 1)[1]) for line in (out / "excursions.csv").read_text(encoding="utf-8").splitlines()[1:]]
    return {
        "engine.ess_frac": diag["ess"] / w.n_atoms,
        "engine.w2_hat": diag["w2_hat"],
        "engine.started_frac": sum(t > 0 for t in taus) / len(taus),
        "engine.mean_tau": sum(taus) / len(taus),
        "engine.max_tau": float(max(taus)),
        "kernel_steps": float(sum(taus)),
    }


def machine_facts() -> dict:
    import importlib.metadata as md

    def version(pkg: str) -> str | None:
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def load_1min() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """One invocation on one workload: set-up probes, identity check, timed runs, trace."""
    deadline = time.perf_counter() + DEADLINE_S
    oc = Outcome()
    msc = [sys.executable, "-m", "mscmc.cli", w.command]

    def child(argv: list[str], tag: str) -> Child:
        timeout = min(CHILD_TIMEOUT_S, deadline - time.perf_counter())
        return run_child(argv, tmp / f"{tag}.log", tmp, timeout)

    def msc_run(tag: str, workers: int) -> tuple[Path, Child]:
        out = tmp / tag
        cfg = make_config(w, seed, ROOT, out)
        cfg["workers"] = workers
        return out, child(msc + [str(write_config(cfg, tmp / f"{tag}.json"))], tag)

    def time_left() -> bool:
        return deadline - time.perf_counter() > 1.0

    # Byte identity across worker counts: the reference run uses the other count.
    reference, proc = msc_run("identity", w.other_workers)
    if oc.child_ok("identity run", proc):
        reason = check_outputs(w, reference, None)
        if reason:
            oc.fail("identity run", reason)
            reference = None
    else:
        reference = None

    # Set-up: a fresh process imports mscmc, loads the config, builds the bundle.
    setup_cfg = write_config(make_config(w, seed, ROOT, tmp / "setup"), tmp / "setup.json")
    probe = [sys.executable, str(HERE / "child.py"), "setup", str(setup_cfg)]
    for k in range(SETUP_PROBES):
        proc = child(probe, "setup")
        if oc.child_ok(f"setup probe {k}", proc):
            oc.add("setup_s", proc.wall_s)

    def calibrate() -> None:
        proc = child([sys.executable, str(HERE / "calibrate.py")], "calibrate")
        if oc.child_ok("calibration", proc):
            oc.add("cal_s", proc.wall_s)

    # Timed runs: closed loop at the workload's worker count for `seconds`,
    # each run preceded by a calibration.
    t_loop = time.perf_counter()
    health = None
    k = 0
    while time_left():
        typical = statistics.median(oc.samples.get("run_s") or [0.0])
        if k >= MIN_TIMED_RUNS and time.perf_counter() - t_loop + typical > seconds:
            break
        calibrate()
        out, proc = msc_run(f"run-{k}", w.workers)
        if oc.child_ok(f"timed run {k}", proc):
            reason = check_outputs(w, out, reference)
            if reason:
                oc.fail(f"timed run {k}", reason)
            else:
                oc.add("run_s", proc.wall_s)
                oc.add("cpu_s", proc.cpu_s)
                oc.add("peak_rss_mb", proc.rss_mb)
                if health is None:
                    health = run_health(w, out)
                reference = reference or out
        if out != reference:
            shutil.rmtree(out, ignore_errors=True)
        k += 1
    calibrate()

    result = {"outcome": oc, "health": health, "spans": None, "micro": None}
    if not trace:
        return result

    # Traced run: same config, spans around the CLI's calls into each layer.
    spans_path = tmp / "spans.json"
    out = tmp / "traced"
    cfg_path = write_config(make_config(w, seed, ROOT, out), tmp / "traced.json")
    proc = child(
        [sys.executable, str(HERE / "child.py"), "traced", str(spans_path), w.command, str(cfg_path)],
        "traced",
    )
    if oc.child_ok("traced run", proc):
        reason = check_outputs(w, out, reference)
        if reason:
            oc.fail("traced run", reason)
        else:
            result["spans"] = json.loads(spans_path.read_text(encoding="utf-8"))
            result["traced_wall_s"] = proc.wall_s
            result["output_bytes"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())

    # Microbenchmarks of public functions, in a fresh process after warm-up.
    micro_path = tmp / "micro.json"
    proc = child(
        [sys.executable, str(HERE / "child.py"), "micro", str(micro_path), str(seed),
         str(ROOT / HEART_DATA)],
        "micro",
    )
    if oc.child_ok("microbenchmarks", proc):
        result["micro"] = json.loads(micro_path.read_text(encoding="utf-8"))
    return result


def _median(values: list[float] | None) -> float | None:
    return statistics.median(values) if values else None


def end_to_end_metrics(result: dict) -> dict[str, float | None]:
    oc: Outcome = result["outcome"]
    out = {key: _median(oc.samples.get(key)) for key in ("run_s", "cpu_s", "peak_rss_mb", "setup_s")}
    cal = _median(oc.samples.get("cal_s"))
    for key in ("run_s", "cpu_s"):
        out[key] = out[key] * CAL_REF_S / cal if out[key] and cal else None
    out["ok_frac"] = (oc.attempted - len(oc.failures)) / oc.attempted
    return out


def per_layer_metrics(w: Workload, result: dict) -> dict[str, float | None]:
    oc: Outcome = result["outcome"]
    out: dict[str, float | None] = {m.name: None for m in PER_LAYER}
    out.update(result["micro"] or {})
    health = dict(result["health"] or {})
    steps = health.pop("kernel_steps", None)
    out.update(health)
    run_s, cpu_s = _median(oc.samples.get("run_s")), _median(oc.samples.get("cpu_s"))
    if run_s and cpu_s:
        out["engine.cpu_util"] = cpu_s / (run_s * w.workers)
    if result["spans"] is not None:
        own = self_times([Span(**sp) for sp in result["spans"]])
        restart = own.get("engine.build_initial_distribution")
        excursions = own.get("engine.msc_estimate")
        out["cli.setup_s"] = own.get("setup")
        out["cli.residual_s"] = own.get("cli.main")
        out["rng.sampler_build_s"] = own.get("rng.CategoricalSampler")
        out["engine.restart_s"] = restart
        out["engine.excursions_s"] = excursions
        if restart:
            out["engine.restart_atoms_per_s"] = w.n_atoms / restart
        if excursions:
            out["engine.chains_per_s"] = w.n_chains / excursions
            if steps is not None:
                out["engine.kernel_steps_per_s"] = steps / excursions
        out["cli.output_bytes"] = float(result["output_bytes"])
        if run_s:
            out["trace.overhead_ratio"] = result["traced_wall_s"] / run_s
    return out


def report(w: Workload, seed: int, result: dict, trace: bool, machine: dict) -> tuple[dict, dict]:
    """Print the human-readable table; return (metrics for the JSON line, full record)."""
    oc: Outcome = result["outcome"]
    e2e = end_to_end_metrics(result)
    layer = per_layer_metrics(w, result) if trace else {}
    n_runs = len(oc.samples.get("run_s", []))
    print(f"== {w.name} (seed {seed}): {n_runs} timed runs, {oc.attempted} processes, "
          f"{len(oc.failures)} failed, failed_frac={len(oc.failures) / oc.attempted:.4f}")
    print(f"   load average (1 min): {machine['load_1min_before']} before, "
          f"{machine['load_1min_after']} after")
    for reason in oc.failures:
        print(f"   FAILED {reason}")
    for m in END_TO_END:
        extra = ""
        if m.name in oc.samples:
            vals = oc.samples[m.name]
            extra = (f"  (raw median {statistics.median(vals):.4g}, n={len(vals)}, "
                     f"min {min(vals):.4g}, max {max(vals):.4g})")
        print(f"   {m.name:<28} {_fmt(e2e[m.name]):>14} {m.unit:<9}{extra}")
    if "cal_s" in oc.samples:
        cal = oc.samples["cal_s"]
        print(f"   calibration {statistics.median(cal):.4g} s median of {len(cal)} "
              f"(reference {CAL_REF_S} s; run_s and cpu_s are scaled by the ratio)")
    for m in PER_LAYER if trace else []:
        print(f"   {m.name:<28} {_fmt(layer[m.name]):>14} {m.unit:<9}  moves: {m.moves}")
    health = result["health"] or {}
    if health:
        print(f"   restart health: ess/N={health['engine.ess_frac']:.3g} "
              f"w2_hat={health['engine.w2_hat']:.6g} mean_tau={health['engine.mean_tau']:.4g}")
    metrics = layer if trace else e2e
    record = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine,
        "attempted": oc.attempted,
        "failed": len(oc.failures),
        "failures": oc.failures,
        "samples": oc.samples,
        "end_to_end": e2e,
        "per_layer": layer,
        "spans": result["spans"],
    }
    return metrics, record


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "mscmc" / "cli.py", ROOT / HEART_DATA):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a full mscmc checkout", file=sys.stderr)
            return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    missing: list[str] = []
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    for name in names:
        w = WORKLOADS[name]
        tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench"))
        try:
            load_before = load_1min()
            result = run_workload(w, args.seed, args.seconds, bool(args.trace), tmp)
            load_after = load_1min()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        machine = dict(facts, load_1min_before=load_before, load_1min_after=load_after)
        ws, record = report(w, args.seed, result, bool(args.trace), machine)
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in ws.items():
            if value is None:
                missing.append(prefix + key)
            else:
                metrics[prefix + key] = {"value": value, "unit": units[key]}
    if missing:
        print("missing metrics: " + ", ".join(missing))
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

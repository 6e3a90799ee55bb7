import dataclasses
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from mscmc.ar import ArConfig, ArModel
from mscmc.cli import (
    COMMANDS,
    KEYS,
    _ar_config,
    _baseline_params,
    _logit_model,
    _plan_params,
    _write_csv,
    _write_taus,
    build_parser,
    load_config,
    main,
)
from mscmc import cli, rng
from mscmc.baselines import run_rwm, run_single_chain_gibbs
from mscmc.engine import build_initial_distribution
from mscmc.rng import CategoricalSampler, derive_stream

from conftest import HEART_PATH, REPO_ROOT


# the bad values tried on every config key, wherever the table's kind and
# range reject them
BAD_VALUES = ["abc", "", True, [], {}, None, -1, 0, 0.5, 1e308, -1e308, 2**70, 1e-320]


def table_admits(key, value) -> bool:
    """Whether ``value`` has config key ``key``'s kind and lies in its range."""
    kind, low, high = key.kind, key.low, key.high
    if value is None:
        return key.default is None
    if isinstance(kind, tuple):
        return value in kind
    if isinstance(kind, list):
        entry = type(key)(1, kind[0], low, high)
        return isinstance(value, list) and value != [] and all(table_admits(entry, v) for v in value)
    if kind in (str, bool):
        return isinstance(value, kind) and value != ""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind is int and int(value) != value:
        return False
    if kind is float:  # a float's range is open, an int's closed
        return (low is None or value > low) and (high is None or value < high)
    return (low is None or value >= low) and (high is None or value <= high)


def write_config(path, **overrides):
    cfg = {
        "model": "ar",
        "master_seed": 7,
        "n_atoms": 2_000,
        "n_chains": 400,
        "out_dir": None,
        "ar": {"rho": 0.9, "d": 2, "h": 0.49, "r": 1.5},
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def read_estimates(out_dir):
    rows = {}
    with open(os.path.join(out_dir, "estimates.csv")) as fh:
        assert fh.readline().strip() == "function,estimate,stderr"
        for line in fh:
            name, est, se = line.strip().split(",")
            rows[name] = (float(est), float(se))
    return rows


class TestPlan:
    def test_sweep_outputs(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            out_dir=str(tmp_path / "out"),
            plan={"eps": 0.1, "delta": 0.1, "dims": [1, 2, 5, 10]},
        )
        assert main(["plan", str(cfg)]) == 0
        lines = (tmp_path / "out" / "plan.csv").read_text().strip().splitlines()
        assert lines[0] == "d,gamma,K,R,gamma_R,w2,N_required,M_required"
        assert len(lines) == 5
        table = [line.split(",") for line in lines[1:]]
        Ns = [int(row[6]) for row in table]
        Ms = [int(row[7]) for row in table]
        assert Ns == sorted(Ns) and Ms == sorted(Ms)

    def test_balanced_h_unit_weight_column(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            out_dir=str(tmp_path / "out"),
            ar={"rho": 0.9, "d": 2, "h": 0.5, "r": 1.5},
            plan={"eps": 0.1, "delta": 0.1, "dims": [1, 3, 9]},
        )
        assert main(["plan", str(cfg)]) == 0
        lines = (tmp_path / "out" / "plan.csv").read_text().strip().splitlines()
        for row in lines[1:]:
            assert float(row.split(",")[5]) == 1.0

    def test_reference_dimension_row(self, tmp_path):
        from mscmc.bounds import ar_drift_constants, plan_sizes

        cfg = write_config(
            tmp_path / "cfg.json",
            out_dir=str(tmp_path / "out"),
            plan={"eps": 0.1, "delta": 0.1, "dims": [2]},
        )
        assert main(["plan", str(cfg)]) == 0
        row = (tmp_path / "out" / "plan.csv").read_text().strip().splitlines()[1].split(",")
        N, M = plan_sizes(0.1, 0.1, *ar_drift_constants(0.9, 2, 0.49, 1.5))
        assert int(row[6]) == N and int(row[7]) == M


class TestRunAr:
    def test_output_contract(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(out))
        assert main(["run-ar", str(cfg)]) == 0
        rows = read_estimates(out)
        assert set(rows) == {"x0", "x1"}
        for est, se in rows.values():
            assert abs(est) <= 3 * se  # invariant mean is zero
        exc = (out / "excursions.csv").read_text().strip().splitlines()
        assert exc[0] == "chain,tau"
        taus = [int(line.split(",")[1]) for line in exc[1:]]
        assert len(taus) == 400 and all(t >= 0 for t in taus)
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["schema_version"] == "msc-output-1"
        assert 0.0 <= diag["skip_fraction"] <= 1.0
        # mean return time sits below the excursion-length bound
        rate = 0.81 + 0.57 / 4.0
        assert diag["mean_tau"] <= (0.81 * 4.0 + 2 * 0.57 - 1) / (1 - rate)
        assert json.loads((out / "config.json").read_text())["master_seed"] == 7

    def test_byte_identical_reruns(self, tmp_path):
        couts = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cfg = write_config(tmp_path / f"{tag}.json", out_dir=str(out))
            assert main(["run-ar", str(cfg)]) == 0
            couts.append(
                (out / "estimates.csv").read_bytes() + (out / "excursions.csv").read_bytes()
            )
        assert couts[0] == couts[1]

    def test_excursions_writer_matches_generic_csv(self, tmp_path):
        taus = np.array([0, 1, 3, 0, 12, 2**40], dtype=np.int64)
        _write_taus(tmp_path / "fast.csv", taus)
        _write_csv(tmp_path / "slow.csv", ["chain", "tau"], [[m, int(t)] for m, t in enumerate(taus)])
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_seed_flag_changes_results(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            cfg = write_config(tmp_path / f"s{seed}.json", out_dir=str(out))
            assert main(["run-ar", str(cfg), "--seed", str(seed)]) == 0
            outs.append((out / "estimates.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_cap_error_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), excursion_cap=1
        )
        assert main(["run-ar", str(cfg)]) == 1

    def test_every_start_outside_exit_1(self, tmp_path, capsys):
        # a proposal this wide puts every atom, so every chain's start,
        # outside the drift set: an estimate of 0 +- 0 would mean nothing
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), ar={"h": 1e200})
        assert main(["run-ar", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "engine error: all 400 chains started outside the drift set" in err
        assert not (tmp_path / "out" / "estimates.csv").exists()

    def test_desk_config_does_not_warn(self, tmp_path, capsys):
        path = os.path.join(REPO_ROOT, "configs", "ar_desk.json")
        assert main(["run-ar", path, "--out", str(tmp_path / "out"), "--workers", "1"]) == 0
        assert capsys.readouterr().err == ""


class TestRunLogit:
    def test_output_contract(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json",
            model="logit",
            out_dir=str(out),
            n_atoms=2_000,
            n_chains=50,
            logit={"data_path": HEART_PATH, "sigma_scale": 10.0, "h": 0.49, "r": 1.001},
        )
        assert main(["run-logit", str(cfg)]) == 0
        rows = read_estimates(out)
        assert len(rows) == 19 and "intercept" in rows
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["mean_tau"] == pytest.approx(1.0, abs=0.05)

    def test_worker_counts_byte_identical(self, tmp_path):
        # 12 atoms come in restart blocks of 3 rows at 1 worker and of 1 or 2
        # rows at 2 and 3, where a BLAS product gives some rows other bits
        # (at each of these seeds); the narrow standardized prior keeps many
        # atoms' weights above zero
        cfg = write_config(
            tmp_path / "cfg.json",
            model="logit",
            n_atoms=12,
            n_chains=40,
            logit={
                "data_path": HEART_PATH,
                "sigma_scale": 0.01,
                "h": 0.49,
                "r": 1.001,
                "standardize": True,
            },
        )
        for seed in (1, 2, 3):
            outs = []
            for workers in (1, 2, 3):
                out = tmp_path / f"s{seed}w{workers}"
                args = ["--seed", str(seed), "--workers", str(workers), "--out", str(out)]
                assert main(["run-logit", str(cfg), *args]) == 0
                diag = json.loads((out / "diagnostics.json").read_text())
                outs.append(
                    (
                        (out / "estimates.csv").read_bytes(),
                        (out / "excursions.csv").read_bytes(),
                        diag["ess"],
                        diag["w2_hat"],
                    )
                )
            assert outs[0] == outs[1] == outs[2]

    def test_compare_report_after_baseline(self, tmp_path, capsys):
        out = tmp_path / "out"
        common = dict(
            model="logit",
            out_dir=str(out),
            n_atoms=500,
            n_chains=40,
            logit={"data_path": HEART_PATH, "sigma_scale": 10.0, "h": 0.49, "r": 1.001},
            baseline={"steps": 400, "burn_in": 40},
        )
        cfg = write_config(tmp_path / "cfg.json", **common)
        assert main(["run-logit", str(cfg)]) == 0
        assert main(["baseline-gibbs", str(cfg)]) == 0
        assert os.path.exists(out / "baseline_gibbs.csv")
        assert os.path.exists(out / "compare.csv")
        header = (out / "compare.csv").read_text().splitlines()[0]
        assert header.startswith("coordinate,")
        assert "msc_mean" in header and "gibbs_mean" in header
        assert "comparison across" in capsys.readouterr().out

    def test_baseline_rwm_reports_acceptance(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json",
            model="logit",
            out_dir=str(out),
            n_atoms=300,
            logit={"data_path": HEART_PATH, "sigma_scale": 10.0, "h": 0.49, "r": 1.001},
            baseline={"steps": 500, "burn_in": 50},
        )
        assert main(["baseline-rwm", str(cfg)]) == 0
        assert "acceptance rate" in capsys.readouterr().out
        assert os.path.exists(out / "baseline_rwm.csv")

    def _baseline_matches_library(self, tmp_path, which, run, steps):
        # the CLI's chain is the library's, from the restart atom that word 0
        # of stream ("baseline-start", 0) picks
        out, seed, n_atoms = tmp_path / "out", 7, 300
        logit = {"data_path": HEART_PATH, "standardize": True}
        cfg = write_config(
            tmp_path / "cfg.json",
            model="logit",
            master_seed=seed,
            n_atoms=n_atoms,
            out_dir=str(out),
            logit=logit,
            baseline={"steps": steps, "burn_in": steps // 10},
        )
        assert main([f"baseline-{which}", str(cfg)]) == 0
        model = _logit_model({"logit": logit})
        atoms = build_initial_distribution(model, n_atoms, seed)
        start = atoms.atoms[
            CategoricalSampler(atoms.norm_weights).sample(derive_stream(seed, "baseline-start", 0))
        ]
        res = run(model.posterior, steps, steps // 10, start, seed)
        names = model.posterior.dataset.column_names
        want = "coordinate,mean,stderr\n" + "".join(
            f"{name},{float(m)!r},{float(se)!r}\n" for name, m, se in zip(names, res.mean, res.stderr)
        )
        assert (out / f"baseline_{which}.csv").read_text() == want
        return res, json.loads((out / "diagnostics.json").read_text())

    def test_baseline_rwm_matches_library(self, tmp_path):
        res, diag = self._baseline_matches_library(tmp_path, "rwm", run_rwm, 400)
        assert diag["acceptance_rate"] == res.acceptance_rate

    def test_baseline_gibbs_matches_library(self, tmp_path):
        res, diag = self._baseline_matches_library(tmp_path, "gibbs", run_single_chain_gibbs, 200)
        assert res.acceptance_rate is None and "acceptance_rate" not in diag

    @pytest.mark.parametrize("rate", [0.0, 1.0, None])
    def test_stuck_rwm_chain_warns(self, tmp_path, capsys, monkeypatch, rate):
        # a short run can reject, or accept, every step: the run warns once
        # and still exits 0 with its files; the default run of 300 steps
        # does neither and does not warn
        if rate is not None:
            monkeypatch.setattr(
                cli, "run_rwm", lambda *args: dataclasses.replace(run_rwm(*args), acceptance_rate=rate)
            )
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json",
            model="logit",
            out_dir=str(out),
            n_atoms=300,
            logit={"data_path": HEART_PATH},
            baseline={"steps": 300, "burn_in": 30},
        )
        assert main(["baseline-rwm", str(cfg)]) == 0
        err = capsys.readouterr().err
        if rate is None:
            assert "warning" not in err
        else:
            assert err.startswith(f"warning: random-walk acceptance rate = {rate} over 300 steps")
            assert err.endswith("; run more steps\n") and err.count("\n") == 1
        assert (out / "baseline_rwm.csv").exists()

    def test_collapsed_restart_warns(self, tmp_path, capsys):
        # the prior-scale proposal puts almost all weight on one heart atom
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json",
            model="logit",
            out_dir=str(out),
            n_atoms=2_000,
            n_chains=50,
            logit={"data_path": HEART_PATH},
        )
        assert main(["run-logit", str(cfg)]) == 0
        assert "warning: restart ess = 1.00 of 2000 atoms" in capsys.readouterr().err
        assert json.loads((out / "diagnostics.json").read_text())["ess"] < 2

    @pytest.mark.parametrize("sigma_scale", [1e-300, 1e-160])
    def test_vanishing_sigma_scale_named(self, tmp_path, capsys, sigma_scale):
        # L = |Sigma|^2 |score|^2 underflows to 0 at 1e-300, and at 1e-160
        # is too small for 1 + rL to exceed 1 + L; the score is nonzero
        cfg = write_config(
            tmp_path / "cfg.json",
            model="logit",
            out_dir=str(tmp_path / "out"),
            logit={"data_path": HEART_PATH, "sigma_scale": sigma_scale},
        )
        assert main(["run-logit", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"logit.sigma_scale = {sigma_scale!r}" in err
        assert "score" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_data_file_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            model="logit",
            out_dir=str(tmp_path / "out"),
            logit={"data_path": "/no/such/file.data"},
        )
        assert main(["run-logit", str(cfg)]) == 2
        assert "/no/such/file.data" in capsys.readouterr().err


class TestConfigHandling:
    def test_missing_config_file(self, capsys):
        assert main(["plan", "/no/such/config.json"]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["plan", str(path)]) == 2

    def test_invalid_chain_count(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "o"), n_chains=1)
        assert main(["run-ar", str(cfg)]) == 2

    def test_worker_count_preserves_results(self, tmp_path):
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            cfg = write_config(tmp_path / f"{workers}.json", out_dir=str(out))
            assert main(["run-ar", str(cfg), "--workers", workers]) == 0
            outs.append((out / "estimates.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("run-logit", {"logit": {"data_path": HEART_PATH, "sigma_scale": "abc"}}),
            ("run-logit", {"logit": {"data_path": HEART_PATH, "r": 0.5}}),
            ("plan", {"plan": {"dims": ["x"]}}),
            ("plan", {"plan": {"dims": [0]}}),
            ("plan", {"plan": {"dims": [1.9]}}),
            ("plan", {"plan": {"dims": [True]}}),
            ("run-ar", {"ar": {"d": 2.7}}),
            ("run-ar", {"ar": {"d": "2"}}),
            ("baseline-gibbs", {"logit": {"data_path": HEART_PATH}, "baseline": {"steps": 400.9}}),
            (
                "baseline-gibbs",
                {"logit": {"data_path": HEART_PATH}, "baseline": {"steps": 400, "burn_in": 40.5}},
            ),
            ("plan", {"ar": {"rho": 1.5}}),
            ("run-logit", {"logit": {"data_path": HEART_PATH, "standardize": "no"}}),
            ("run-ar", {"master_seed": 2**64}),
            (
                "baseline-rwm",
                {"logit": {"data_path": HEART_PATH}, "baseline": {"rwm_scale_override": "abc"}},
            ),
            ("plan", {"plan": 5}),
            ("plan", {"ar": 5}),
            ("baseline-gibbs", {"logit": {"data_path": HEART_PATH}, "baseline": 5}),
            ("baseline-gibbs", {"logit": {"data_path": HEART_PATH}, "baseline": {"start": "nope"}}),
            ("run-ar", {"ar": {"rho": "0.9"}}),
            ("run-ar", {"ar": {"r": math.inf}}),
            ("run-ar", {"ar": {"h": 1e-320}}),
            ("run-ar", {"ar": {"h": 1e308}}),
            ("plan", {"plan": {"eps": "0.1"}}),
            ("plan", {"plan": {"delta": math.nan}}),
            ("plan", {"ar": {"r": 1e308}}),
            ("plan", {"ar": {"h": 1e-320}}),
            ("plan", {"ar": {"h": 1e308}}),
            ("plan", {"plan": {"eps": 1e-200}}),
            ("run-logit", {"logit": {"data_path": HEART_PATH, "sigma_scale": True}}),
            ("run-logit", {"logit": {"data_path": HEART_PATH, "sigma_scale": math.nan}}),
            ("run-logit", {"logit": {"data_path": HEART_PATH, "h": "0.49"}}),
            (
                "baseline-rwm",
                {"logit": {"data_path": HEART_PATH}, "baseline": {"rwm_scale_override": math.inf}},
            ),
            ("run-ar", {"n_chian": 50}),
            ("run-ar", {"ar": {"rh0": 0.5}}),
            ("run-ar", {"plan": {"dim": [2]}}),
            ("plan", {"plan": {"epsilon": 0.1}}),
            ("run-logit", {"logit": {"data_path": HEART_PATH, "sigma": 1.0}}),
            ("baseline-gibbs", {"logit": {"data_path": HEART_PATH}, "baseline": {"step": 400}}),
            ("run-logit", {"logit": {"data_path": HEART_PATH, "sigma_scale": 1e200}}),
            ("baseline-rwm", {"logit": {"data_path": HEART_PATH, "sigma_scale": 1e200}}),
            (
                "baseline-gibbs",
                {"logit": {"data_path": HEART_PATH}, "baseline": {"steps": 3, "burn_in": 0}},
            ),
            ("run-ar", {"out_dir": 5}),
            ("run-ar", {"out_dir": ["a"]}),
            ("plan", {"ar": {"h": 1e306, "d": 1}}),
            ("plan", {"ar": {"h": 1e306, "d": 1}, "plan": {"dims": [2]}}),
            ("run-ar", {"ar": {"r": 1e308}}),
            ("plan", {"ar": {"r": 1e308, "d": 1}, "plan": {"dims": [5]}}),
            ("run-logit", {"logit": {"data_path": HEART_PATH, "r": 1e308}}),
            ("baseline-gibbs", {"logit": {"data_path": HEART_PATH, "r": 1e308}}),
            ("baseline-rwm", {"logit": {"data_path": HEART_PATH, "r": 1e308}}),
            (
                "baseline-rwm",
                {"logit": {"data_path": HEART_PATH}, "baseline": {"rwm_scale_override": 0}},
            ),
            (
                "baseline-rwm",
                {"logit": {"data_path": HEART_PATH}, "baseline": {"rwm_scale_override": -1}},
            ),
            (
                "baseline-rwm",
                {"logit": {"data_path": HEART_PATH}, "baseline": {"rwm_scale_override": 1e308}},
            ),
            ("plan", {"plan": {"dims": [1, 2**70]}}),
            ("run-ar", {"ar": {"rho": 10**400}}),
        ],
        ids=[
            "logit-sigma-scale",
            "logit-r",
            "plan-dims",
            "plan-dims-zero",
            "plan-dims-fraction",
            "plan-dims-bool",
            "ar-d-fraction",
            "ar-d-text",
            "baseline-steps-fraction",
            "baseline-burn-in-fraction",
            "plan-ar-rho",
            "logit-standardize-text",
            "seed-above-64-bits",
            "baseline-rwm-scale",
            "plan-not-object",
            "plan-ar-not-object",
            "baseline-not-object",
            "baseline-start",
            "ar-rho-text",
            "ar-r-infinite",
            "ar-h-overflow",
            "ar-h-draw-overflow",
            "plan-eps-text",
            "plan-delta-nan",
            "plan-ar-r-overflow",
            "plan-ar-h-overflow",
            "plan-ar-h-draw-overflow",
            "plan-eps-underflow",
            "logit-sigma-scale-bool",
            "logit-sigma-scale-nan",
            "logit-h-text",
            "baseline-rwm-scale-infinite",
            "unknown-top-level-key",
            "ar-unknown-key",
            "unread-block-unknown-key",
            "plan-unknown-key",
            "logit-unknown-key",
            "baseline-unknown-key",
            "logit-sigma-scale-overflow",
            "baseline-sigma-scale-overflow",
            "baseline-too-few-kept-steps",
            "out-dir-int",
            "out-dir-list",
            "plan-ar-h-w2-overflow",
            "plan-ar-h-sizes-overflow",
            "ar-r-radius-overflow",
            "plan-ar-r-radius-overflow",
            "logit-r-radius-overflow",
            "baseline-gibbs-r-radius-overflow",
            "baseline-rwm-r-radius-overflow",
            "baseline-rwm-scale-zero",
            "baseline-rwm-scale-negative",
            "baseline-rwm-scale-overflow",
            "plan-dims-entry-ceiling",
            "ar-rho-past-float-range",
        ],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path / "cfg.json", **{"out_dir": str(tmp_path / "out"), **overrides})
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "command, name", [(c, n) for c in COMMANDS for n in KEYS], ids=lambda v: str(v)
    )
    def test_bad_value_rejected_at_load(self, tmp_path, capsys, command, name):
        # every command checks every key while the config loads, so each bad
        # value exits 2 with one line naming its key, and no directory is made
        block, _, key = name.rpartition(".")
        out = tmp_path / "out"
        cases = [v for v in BAD_VALUES if not table_admits(KEYS[name], v)]
        assert cases
        for value in cases:
            overrides = {block: {key: value}} if block else {key: value}
            cfg = write_config(tmp_path / "cfg.json", **{"out_dir": str(out), **overrides})
            assert main([command, str(cfg)]) == 2, value
            err = capsys.readouterr().err
            assert err.startswith(f"error: config key '{name}'") and err.count("\n") == 1, err
            assert not out.exists(), value

    @pytest.mark.parametrize("value", [0, -1, 1e308])
    def test_rwm_scale_override_named(self, tmp_path, capsys, value):
        # the key is gone: any value of it is an unknown key
        cfg = write_config(
            tmp_path / "cfg.json",
            out_dir=str(tmp_path / "out"),
            logit={"data_path": HEART_PATH},
            baseline={"rwm_scale_override": value},
        )
        assert main(["baseline-rwm", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown config key 'baseline.rwm_scale_override' (known: burn_in, steps)\n"
        )

    @pytest.mark.parametrize("command", ["baseline-gibbs", "baseline-rwm"])
    @pytest.mark.parametrize(
        "key, value", [("start", "atoms"), ("start", "proposal"), ("rwm_scale_override", None)]
    )
    def test_removed_baseline_key_rejected(self, tmp_path, capsys, command, key, value):
        # a config written for the baselines' other starts and step scales
        # names a key the table no longer holds
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json",
            model="logit",
            out_dir=str(out),
            logit={"data_path": HEART_PATH},
            baseline={"steps": 400, key: value},
        )
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config key 'baseline.{key}'") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-ar", "plan"])
    @pytest.mark.parametrize("key, value", [("rho", "x"), ("d", True)])
    def test_ar_type_error_names_key(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), ar={key: value})
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: config key 'ar.{key}' must be a number (got {value!r})\n"
        )

    @pytest.mark.parametrize("command", ["run-ar", "plan"])
    def test_ar_h_draw_overflow_named(self, tmp_path, capsys, command):
        # rejected before any draw, so no overflow warning reaches stderr
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), ar={"h": 1e308})
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad AR parameters: ar.h = 1e+308 is too large at d = 2")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "dims, what",
        [
            ([1, 5], "ar.h = 1e+306 at plan dimension d = 5: the weight second moment"),
            (
                [2],
                "ar.h = 1e+306 (w2 = 4.999999999999999e+305) overflows the planned sizes at "
                "plan dimension d = 2",
            ),
        ],
        ids=["w2", "sizes"],
    )
    def test_plan_overflow_named(self, tmp_path, capsys, dims, what):
        cfg = write_config(
            tmp_path / "cfg.json",
            out_dir=str(tmp_path / "out"),
            ar={"h": 1e306, "d": 1},
            plan={"dims": dims},
        )
        assert main(["plan", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: bad plan parameters: " + what)

    def test_plan_sizes_overflow_names_radius_not_h(self, tmp_path, capsys):
        # at d = 1 the radius R = 1 + 1e308 is finite and w2 is about 1, so
        # only the planned sizes overflow
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), ar={"r": 1e308})
        assert main(["plan", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: bad plan parameters: ar.r = 1e+308 (R = 1e+308) overflows the planned "
            "sizes at plan dimension d = 1"
        )
        assert "ar.h" not in err

    def test_plan_sizes_overflow_names_delta(self, tmp_path, capsys):
        # delta eps^2 = 1e-322 is not zero, but the sizes 1 / (delta eps^2)
        # leave float range; R = 4 and w2 = 1.0001 are not at fault
        cfg = write_config(
            tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), plan={"delta": 1e-320}
        )
        assert main(["plan", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: bad plan parameters: plan.delta = 1e-320 (the budget delta eps^2 = "
            "1e-322) overflows the planned sizes at plan dimension d = 1\n"
        )
        assert not (tmp_path / "out").exists()

    def test_ar_h_w2_overflow_named(self, tmp_path, capsys):
        # a tiny h makes the proposal tilt t about 1 / (2 sqrt(2h)), so t^d
        # leaves float range at d = 2
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), ar={"h": 1e-320})
        assert main(["run-ar", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: bad AR parameters: ar.h = 1e-320 at d = 2: "
            "the weight second moment w2 = t^d overflows\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, flag",
        [({"workers": 1e308}, []), ({"workers": 257}, []), ({}, ["--workers", "257"])],
        ids=["config-1e308", "config-257", "flag-257"],
    )
    def test_worker_ceiling(self, tmp_path, capsys, monkeypatch, overrides, flag):
        # rejected while the config loads: no stage runs, so no process starts
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr("mscmc.cli.build_initial_distribution", no_stage)
        cfg = write_config(
            tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), n_atoms=300, **overrides
        )
        assert main(["run-ar", str(cfg), *flag]) == 2
        assert capsys.readouterr().err == "error: config key 'workers' must be <= 256\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "logit, what",
        [
            ({"r": 0.5}, "logit.r = 0.5: r must exceed 1"),
            ({"h": 0.7}, "logit.h = 0.7: h must lie in (0, 1/2]"),
        ],
        ids=["r", "h"],
    )
    def test_logit_value_named(self, tmp_path, capsys, logit, what):
        cfg = write_config(
            tmp_path / "cfg.json",
            out_dir=str(tmp_path / "out"),
            logit={"data_path": HEART_PATH, **logit},
        )
        assert main(["run-logit", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {what}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, overrides, what",
        [
            (
                "run-ar",
                {"ar": {"r": 1e308}},
                "bad AR parameters: ar.r = 1e+308 gives the drift radius R = 1 + r d at d = 2",
            ),
            (
                "plan",
                {"ar": {"r": 1e308, "d": 1}, "plan": {"dims": [5]}},
                "bad plan parameters: ar.r = 1e+308 gives the drift radius R = 1 + r d at plan "
                "dimension d = 5: R must be finite",
            ),
            ("run-logit", {"logit": {"data_path": HEART_PATH, "r": 1e308}}, "logit.r = 1e+308"),
            *[
                (command, {"logit": {"data_path": HEART_PATH, "r": 1e308}}, "logit.r = 1e+308")
                for command in ("baseline-gibbs", "baseline-rwm")
            ],
            (
                "plan",
                {"plan": {"eps": 1e-200}},
                "plan.eps = 1e-200, plan.delta = 0.1: the budget delta eps^2 underflows",
            ),
        ],
        ids=["run-ar", "plan", "run-logit", "baseline-gibbs", "baseline-rwm", "plan-eps"],
    )
    def test_overflow_and_underflow_named(self, tmp_path, capsys, command, overrides, what):
        # an infinite drift radius R = 1 + r d or 1 + r L would make the return
        # set the whole space, and a zero budget would divide by zero
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), **overrides)
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert what in err
        assert "radius" in err or "budget" in err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), ar={"rh0": 0.5})
        assert main(["run-ar", str(cfg)]) == 2
        assert "'ar.rh0'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-logit", "baseline-rwm"])
    @pytest.mark.parametrize("data_path", [None, "", 3, 1, True], ids=repr)
    def test_data_path_rejected_before_open(
        self, tmp_path, capsys, monkeypatch, command, data_path
    ):
        # open() would read an integer as a file descriptor and block on a
        # terminal, so the loader must not be reached
        def no_open(*args, **kwargs):
            raise AssertionError("the data file was opened")

        monkeypatch.setattr("mscmc.cli.load_heart_dataset", no_open)
        logit = {} if data_path is None else {"data_path": data_path}
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), logit=logit)
        assert main([command, str(cfg)]) == 2
        assert "'logit.data_path' must be a non-empty string" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(REPO_ROOT, "configs"))))
    def test_shipped_config_validates(self, name, monkeypatch):
        # load_config checks each key of the file against the table; the block
        # parsers add the models' own checks.  Data paths in the shipped files
        # are relative to the checkout root
        monkeypatch.chdir(REPO_ROOT)
        path = os.path.join("configs", name)
        with open(path) as fh:
            raw = json.load(fh)
        for top, val in raw.items():
            given = {f"{top}.{k}": v for k, v in val.items()} if isinstance(val, dict) else {top: val}
            for key, value in given.items():
                assert table_admits(KEYS[key], value), key
        cfg = load_config(path, build_parser().parse_args(["plan", path]))
        if cfg["model"] == "logit":  # run-logit and both baselines
            _logit_model(cfg)
            _baseline_params(cfg)
        else:  # run-ar and plan
            _ar_config(cfg)
            _plan_params(cfg)


    def test_readme_schema_lists_the_table_keys(self):
        # the keys of README's "Config schema" block, top-level and dotted
        with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        schema = readme.split("### Config schema", 1)[1].split("```jsonc", 1)[1].split("```")[0]
        schema = re.sub(r"//[^\n]*", "", schema)
        keys, depth, block = [], 0, None
        for m in re.finditer(r'"(\w+)"\s*:(\s*\{)?|[{}]', schema):
            if m.group(1) is None:
                depth += 1 if m.group() == "{" else -1
            elif depth == 2:
                keys.append(f"{block}.{m.group(1)}")
            elif m.group(2):
                block, depth = m.group(1), 2
            else:
                keys.append(m.group(1))
        assert sorted(keys) == sorted(KEYS)


class TestPgSelftest:
    def test_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "o"))
        assert main(["pg-selftest", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "self-test passed" in out
        assert out.count("[ok]") == 2

    def test_checks_the_counter_path(self, tmp_path, capsys, monkeypatch):
        # the Gibbs kernel draws its latents through _CounterRound: doubling
        # its exponentials must fail the check
        exponential = rng._CounterRound.exponential
        monkeypatch.setattr(
            rng._CounterRound, "exponential", lambda self, *a: 2.0 * exponential(self, *a)
        )
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "o"))
        assert main(["pg-selftest", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "self-test failed" in out and "[FAIL]" in out


def _child_env() -> dict:
    # a child interpreter imports mscmc from the checkout's src, as the tests do
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            out_dir=str(tmp_path / "out"),
            plan={"eps": 0.1, "delta": 0.1, "dims": [1]},
        )
        proc = subprocess.run(
            [sys.executable, "-m", "mscmc.cli", "plan", str(cfg)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "N_required" in proc.stdout


class TestStageFailures:
    @pytest.mark.parametrize(
        "n_atoms, workers", [(10**18, 1), (10**18, 2), (10**14, 1), (10**14, 2), (6 * 10**18, 2)]
    )
    def test_unallocatable_stage_is_engine_error(self, tmp_path, capsys, n_atoms, workers):
        # numpy's size check, malloc, mmap's index type, the kernel and a
        # byte count past int64 each refuse one of these; every size is past
        # the 47-bit user address space, so the allocation fails at once
        # whatever the kernel's overcommit setting
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), n_atoms=n_atoms)
        assert main(["run-ar", str(cfg), "--workers", str(workers)]) == 1
        assert capsys.readouterr().err == (
            f"engine error: cannot allocate a ({n_atoms}, 2) float64 array "
            f"({16 * n_atoms} bytes)\n"
        )

    def test_huge_dimension_fails_at_once(self, tmp_path):
        # under a 2 GB address-space limit, a 2^40-coordinate run fails at
        # its first allocation and says why, before any directory is made
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(out), ar={"d": 2**40, "h": 0.5})
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mscmc.cli", "run-ar", str(cfg), "--workers", "1"],
            capture_output=True,
            text=True,
            env=_child_env(),
            preexec_fn=limit,
            timeout=30,
        )
        assert time.perf_counter() - t0 < 10
        assert proc.returncode == 1, proc.stderr
        assert re.fullmatch(r"engine error: \S.*\n", proc.stderr), proc.stderr
        assert not out.exists()

    def test_dead_worker_is_engine_error(self, tmp_path, capsys, monkeypatch):
        def die(*args, **kwargs):
            raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr("mscmc.cli.build_initial_distribution", die)
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"))
        assert main(["run-ar", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "engine error: a worker process died: a child process terminated abruptly\n"
        )

    def test_interrupt_ends_a_two_worker_run(self, tmp_path):
        # Ctrl-C reaches the run's whole process group mid-restart (the
        # restart of 2e7 atoms takes seconds); the run must end at once and
        # take its workers with it
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), n_atoms=20_000_000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "mscmc.cli", "run-ar", str(cfg), "--workers", "2"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=_child_env(),
            start_new_session=True,
        )
        time.sleep(1)
        os.killpg(proc.pid, signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail("the run did not end within 20 s of Ctrl-C")
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        else:
            pytest.fail("a process of the run outlived it")
        assert proc.returncode == -signal.SIGINT


LIBRARY_IMPORT_SCRIPT = """
import os, sys

import mscmc

assert "numpy" not in sys.modules, "import mscmc loaded numpy"
for name in mscmc.__all__:
    getattr(mscmc, name)
assert "OPENBLAS_NUM_THREADS" not in os.environ, "the library changed the environment"
print("ok")
"""

CLI_IMPORT_SCRIPT = """
import os

import mscmc.cli

print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir("/proc/self/task")))
"""


class TestImportSideEffects:
    def run(self, script, **env):
        child_env = _child_env()
        child_env.pop("OPENBLAS_NUM_THREADS", None)
        child_env.update(env)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_library_import_loads_no_numpy_and_leaves_env(self):
        assert self.run(LIBRARY_IMPORT_SCRIPT) == ["ok"]

    def test_public_names_resolve(self):
        import mscmc

        for name in mscmc.__all__:
            assert getattr(mscmc, name) is not None
        with pytest.raises(AttributeError, match="no_such_name"):
            mscmc.no_such_name

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_cli_runs_one_blas_thread(self):
        assert self.run(CLI_IMPORT_SCRIPT) == ["1", "1"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_callers_blas_setting_kept(self):
        setting, _ = self.run(CLI_IMPORT_SCRIPT, OPENBLAS_NUM_THREADS="2")
        assert setting == "2"


SCIPY_FREE_SCRIPT = """
import sys

import mscmc, mscmc.cli
from mscmc.cli import main


def assert_no_scipy(after):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{after} loaded {loaded[:3]}"


assert_no_scipy("import mscmc, mscmc.cli")
for command, cfg in (
    ("plan", sys.argv[1]),
    ("run-ar", sys.argv[1]),
    ("run-logit", sys.argv[2]),
    ("baseline-gibbs", sys.argv[2]),
    ("baseline-rwm", sys.argv[2]),
    ("pg-selftest", sys.argv[2]),
):
    assert main([command, cfg, "--workers", "1"]) == 0, command
    assert_no_scipy(command)
"""


class TestScipyFree:
    def test_no_command_imports_scipy(self, tmp_path):
        ar_cfg = write_config(
            tmp_path / "ar.json",
            out_dir=str(tmp_path / "ar"),
            n_atoms=500,
            n_chains=50,
            plan={"eps": 0.1, "delta": 0.1, "dims": [1, 2]},
        )
        logit_cfg = write_config(
            tmp_path / "logit.json",
            model="logit",
            out_dir=str(tmp_path / "logit"),
            n_atoms=200,
            n_chains=10,
            logit={"data_path": HEART_PATH, "sigma_scale": 10.0, "h": 0.49, "r": 1.001},
            baseline={"steps": 200, "burn_in": 20},
        )
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_FREE_SCRIPT, str(ar_cfg), str(logit_cfg)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(tmp_path / "ar" / "estimates.csv")
        for name in ("estimates.csv", "baseline_gibbs.csv", "baseline_rwm.csv"):
            assert os.path.exists(tmp_path / "logit" / name)


IMPORT_SET_SCRIPT = """
import sys

import mscmc.cli
from mscmc import engine
from mscmc.cli import main

POOL = ("multiprocessing", "concurrent.futures")


def loaded(names):
    return [m for m in names if m in sys.modules]


def check(after, absent):
    assert not loaded(absent), f"{after} loaded {loaded(absent)}"


# numpy.random loads at a logit command's first stream, in this process: a
# forked worker inherits it rather than importing it again
stages = []
map_blocks = engine._map_blocks
engine._map_blocks = lambda *a: stages.append("numpy.random" in sys.modules) or map_blocks(*a)

check("import mscmc.cli", ["numpy.random", *POOL])
for command, workers in (("plan", "1"), ("run-ar", "1")):
    assert main([command, sys.argv[1], "--workers", workers]) == 0, command
    check(command, ["numpy.random", *POOL])
assert main(["run-ar", sys.argv[1], "--workers", "2"]) == 0
assert loaded(POOL) == list(POOL), loaded(POOL)
check("run-ar --workers 2", ["numpy.random"])
stages.clear()
for command in ("run-logit", "baseline-gibbs", "baseline-rwm", "pg-selftest"):
    assert main([command, sys.argv[2], "--workers", "2"]) == 0, command
assert stages and all(stages), stages
"""


class TestImportSet:
    def test_ar_commands_load_no_rng_or_pool_modules(self, tmp_path):
        ar_cfg = write_config(
            tmp_path / "ar.json",
            out_dir=str(tmp_path / "ar"),
            n_atoms=500,
            n_chains=50,
            plan={"eps": 0.1, "delta": 0.1, "dims": [1, 2]},
        )
        logit_cfg = write_config(
            tmp_path / "logit.json",
            model="logit",
            out_dir=str(tmp_path / "logit"),
            n_atoms=200,
            n_chains=10,
            logit={"data_path": HEART_PATH, "sigma_scale": 10.0, "h": 0.49, "r": 1.001},
            baseline={"steps": 200, "burn_in": 20},
        )
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SET_SCRIPT, str(ar_cfg), str(logit_cfg)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("estimates.csv", "baseline_gibbs.csv", "baseline_rwm.csv"):
            assert os.path.exists(tmp_path / "logit" / name)


class TestOutputHashes:
    def test_hashes_match_a_direct_run(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "unused"))
        assert main(["run-ar", str(cfg), "--workers", "1", "--out", str(tmp_path / "direct")]) == 0
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "scripts", "output_hashes.py"), str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 12
        for name in ("estimates.csv", "excursions.csv"):
            digest = hashlib.sha256((tmp_path / "direct" / name).read_bytes()).hexdigest()
            for workers in (1, 2):
                assert f"{digest}  {cfg} workers={workers} {name}" in lines
        # the config's restart stage: N = 2,000 atoms at seed 7, as the run draws them
        dist = build_initial_distribution(ArModel(ArConfig(0.9, 2, 0.49, 1.5)), 2_000, 7, workers=1)
        for name, array in (("atoms", dist.atoms), ("weights", dist.norm_weights)):
            digest = hashlib.sha256(array).hexdigest()
            for workers in (1, 2):
                assert f"{digest}  {cfg} workers={workers} {name}" in lines
        for name, value in (("ess", dist.ess), ("w2_hat", dist.w2_hat)):
            for workers in (1, 2):
                assert f"{value!r}  {cfg} workers={workers} {name}" in lines
        assert not (tmp_path / "unused").exists()

    def test_against_a_saved_listing(self, tmp_path):
        # --against exits 1 when any line differs from the saved listing
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "unused"), n_chains=200)
        script = os.path.join(REPO_ROOT, "scripts", "output_hashes.py")

        def run(*args):
            cmd = [sys.executable, script, *args, str(cfg)]
            return subprocess.run(cmd, capture_output=True, text=True)

        listing = run()
        assert listing.returncode == 0, listing.stderr
        saved = tmp_path / "saved.txt"
        saved.write_text(listing.stdout)
        same = run("--against", str(saved))
        assert (same.returncode, same.stdout) == (0, listing.stdout)
        assert "all 12 lines match" in same.stderr
        lines = listing.stdout.splitlines()
        lines[3] = "0" * 64 + lines[3][64:]
        saved.write_text("\n".join(lines) + "\n")
        moved = run("--against", str(saved))
        assert moved.returncode == 1
        assert "-" + lines[3] in moved.stderr.splitlines()

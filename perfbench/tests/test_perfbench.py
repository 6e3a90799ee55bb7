"""Self-tests of the benchmark: metric names, span arithmetic and the output gate.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from gate import check_ar_target, check_finite, check_identical, read_estimates  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# estimates.csv of `msc run-ar` on the ar-wide shape (d=16, N=M=30000,
# master_seed 7): each stderr is about 0.0074.
AR_WIDE_ESTIMATES = """\
function,estimate,stderr
x0,0.021681927810438022,0.007380014952897426
x1,0.01025657104640867,0.007110259485217161
x2,0.00844097277294321,0.007248413806826962
x3,0.008370742624443928,0.007279935816258431
x4,-0.0028629326114111967,0.0072905246297091655
x5,0.003970564995095961,0.007485885252600133
x6,0.0026442026368274896,0.007320339606417953
x7,-0.002642930978508367,0.007456929097518787
x8,0.005164592567296035,0.007332606231843879
x9,-0.007311071920255355,0.007365503789758578
x10,-0.007693413406895939,0.007129844001955402
x11,0.008854240571430196,0.007329336594726045
x12,-0.008371759901946507,0.0073074511772389245
x13,0.001515458264598039,0.00711695227582915
x14,0.014221384897711142,0.007515990848186193
x15,0.007969551266581651,0.007396322633587413
"""


def test_metric_names_and_units_are_well_formed():
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for m in END_TO_END + PER_LAYER:
        assert NAME.fullmatch(m.name), m.name
        assert UNIT.fullmatch(m.unit), m.unit
        assert m.better in ("higher", "lower")
    for name in WORKLOADS:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    bounds = {m.name: m.bound for m in END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_self_time_subtracts_children_once():
    spans = [
        Span(id=0, name="root", parent=None, start=0.0, end=10.0),
        Span(id=1, name="a", parent=0, start=1.0, end=4.0),
        Span(id=2, name="c", parent=1, start=2.0, end=3.0),
        Span(id=3, name="b", parent=0, start=5.0, end=7.0),
        # a second "b" overlapping the first is covered once, not twice
        Span(id=4, name="b", parent=0, start=6.0, end=8.0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 3.0)
    assert own["a"] == pytest.approx(2.0)
    assert own["c"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(4.0)  # durations 2 + 2; b has no children


def test_tracer_records_parents_and_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    double = tracer.wrap(lambda x: 2 * x, "double")
    with tracer.span("outer"):
        assert double(3) == 6
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", None, "double", 0)
    assert self_times(tracer.spans) == {"outer": 2.0, "double": 1.0}


def _write_estimates(tmp_path: Path, shift: float) -> Path:
    lines = AR_WIDE_ESTIMATES.splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        name, est, se = line.split(",")
        rows.append(f"{name},{float(est) + shift!r},{se}")
    path = tmp_path / "estimates.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_ar_gate_accepts_a_real_run(tmp_path):
    w = WORKLOADS["ar-wide"]
    rows = read_estimates(_write_estimates(tmp_path, 0.0))
    assert check_finite(rows) is None
    assert check_ar_target(rows, w.n_atoms, w.n_chains) is None


@pytest.mark.parametrize("shift", [0.1, -0.1])
def test_ar_gate_rejects_estimates_shifted_by_a_tenth(tmp_path, shift):
    w = WORKLOADS["ar-wide"]
    rows = read_estimates(_write_estimates(tmp_path, shift))
    reason = check_ar_target(rows, w.n_atoms, w.n_chains)
    assert reason is not None and "x0" in reason


def test_finite_gate_rejects_nan(tmp_path):
    path = tmp_path / "estimates.csv"
    path.write_text("function,estimate,stderr\nx0,nan,0.1\n", encoding="utf-8")
    assert "x0" in check_finite(read_estimates(path))


def test_identity_check_rejects_a_one_byte_difference(tmp_path):
    a, b = tmp_path / "w1", tmp_path / "w2"
    for d in (a, b):
        d.mkdir()
        (d / "estimates.csv").write_text(AR_WIDE_ESTIMATES, encoding="utf-8")
        (d / "excursions.csv").write_text("chain,tau\n0,1\n1,0\n2,3\n", encoding="utf-8")
    assert check_identical(a, b) is None
    data = bytearray((b / "excursions.csv").read_bytes())
    data[-2] ^= 1  # "3" -> "2"
    (b / "excursions.csv").write_bytes(bytes(data))
    reason = check_identical(a, b)
    assert reason == f"excursions.csv differs between w1 and w2 at byte {len(data) - 2}"


def test_exits_nonzero_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ar-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", BENCH.name]


def test_run_and_cpu_time_are_scaled_by_the_calibration():
    from run import CAL_REF_S, Outcome, end_to_end_metrics

    oc = Outcome(attempted=8)
    oc.failures.append("timed run 2: exit 1")
    oc.samples = {
        "run_s": [2.0, 4.0, 3.0],
        "cpu_s": [5.0, 6.0, 7.0],
        "cal_s": [2 * CAL_REF_S] * 4,  # the machine ran at half the reference speed
        "peak_rss_mb": [80.0, 81.0, 82.0],
        "setup_s": [0.5, 0.7, 0.6],
    }
    e2e = end_to_end_metrics({"outcome": oc})
    assert e2e["run_s"] == pytest.approx(1.5)
    assert e2e["cpu_s"] == pytest.approx(3.0)
    assert e2e["setup_s"] == pytest.approx(0.6)  # not scaled
    assert e2e["peak_rss_mb"] == pytest.approx(81.0)
    assert e2e["ok_frac"] == pytest.approx(7 / 8)

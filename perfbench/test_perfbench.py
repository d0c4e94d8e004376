"""Tests of the benchmark's correctness gate, tracer and inputs.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from gate import check_invocation, stable_part
from tracer import LAYERS, summarize

ROOT = Path(__file__).resolve().parent.parent
ENV = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
ARGV = ["verify", "s2", "--samples", "1", "--seed", "7", "--format", "json"]


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=120, check=True)


@pytest.fixture(scope="module")
def report_text() -> str:
    return _run("-m", "skverify.cli", *ARGV).stdout


@pytest.fixture(scope="module")
def expected(report_text) -> set:
    return {(c["id"], c["params"]) for c in json.loads(report_text)["checks"]}


def _doctor(text: str, edit) -> str:
    report = json.loads(text)
    edit(report)
    return json.dumps(report, indent=2, default=str) + "\n"


def test_gate_accepts_a_clean_report_and_timing_changes(report_text, expected):
    ref = stable_part(report_text)
    assert '"timing"' not in ref and '"summary"' in ref
    retimed = _doctor(report_text, lambda r: r["timing"].update(total_seconds=99.0))
    assert retimed != report_text
    problems, report, n = check_invocation(0, retimed, expected, ref)
    assert problems == [] and report is not None and n == len(expected) == 3


def test_gate_counts_a_nonzero_exit(report_text, expected):
    problems, _, n = check_invocation(1, report_text, expected, stable_part(report_text))
    assert problems == ["exit code 1"] and n == 3


def test_gate_counts_a_failed_check(report_text, expected):
    text = _doctor(report_text, lambda r: r["checks"][1].update(status="fail"))
    problems, _, n = check_invocation(0, text, expected, None)
    assert len(problems) == 1 and problems[0].startswith("checks not passing") and n == 3


def test_gate_counts_a_missing_check(report_text, expected):
    text = _doctor(report_text, lambda r: r["checks"].pop(0))
    problems, _, n = check_invocation(0, text, expected, None)
    assert len(problems) == 1 and problems[0].startswith("checks missing") and n == 3


def test_gate_counts_a_changed_non_timing_line(report_text, expected):
    text = report_text.replace('"passed": 3', '"passed": 4')
    assert text != report_text
    problems, _, n = check_invocation(0, text, expected, stable_part(report_text))
    assert problems == ["report differs outside timing from the first repetition"]
    assert n == 3


def test_gate_counts_unparseable_output(expected):
    problems, report, n = check_invocation(0, "Traceback ...\n", expected, None)
    assert report is None and problems and n == 3


def test_summarize_self_times_cover_the_root():
    # main [0, 10] has two ideal_slice children, [1, 6] and [7, 9]; the first
    # of them has an rref child [2, 3].
    spans = [["cli.main", 0.0, 10.0, -1], ["graded.ideal_slice", 1.0, 6.0, 0],
             ["linalg.rref", 2.0, 3.0, 1], ["graded.ideal_slice", 7.0, 9.0, 0]]
    s = summarize(spans, [(2, 4, 3, 5, 7)])
    names = s["names"]
    assert names["cli.main"]["self_s"] == 3.0
    assert names["graded.ideal_slice"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert sum(a["self_s"] for a in names.values()) == s["root_s"] == 10.0
    assert s["ideal_slice_computed"] == 1
    assert s["rref"] == {"calls": 1, "rows_in": 4, "rank_out": 3, "max_cols": 5,
                         "max_coeff_bits": 7}


def test_summarize_counts_recursion_once_in_total():
    spans = [["graded.ideal_slice", 0.0, 4.0, -1], ["graded.ideal_slice", 1.0, 3.0, 0]]
    agg = summarize(spans, [])["names"]["graded.ideal_slice"]
    assert agg == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_traced_run_matches_report_and_repeats_its_counters(report_text):
    runs = [json.loads(_run("perfbench/tracer.py", *ARGV).stdout) for _ in range(2)]
    for payload in runs:
        assert payload["exit"] == 0
        assert stable_part(payload["report"]) == stable_part(report_text)
        names = payload["trace"]["names"]
        assert {n.split(".")[0] for n in names} <= set(LAYERS)
        layer_sum = sum(a["self_s"] for a in names.values())
        assert layer_sum == pytest.approx(payload["trace"]["root_s"], rel=1e-9)
        assert names["cli.main"]["calls"] == 1
    counters = [({n: a["calls"] for n, a in p["trace"]["names"].items()},
                 p["trace"]["rref"], p["trace"]["ideal_slice_computed"]) for p in runs]
    assert counters[0] == counters[1]
    assert counters[0][1]["calls"] > 0


def test_expected_checks_cover_the_reference_run():
    _, _, sampling = run.load_program()
    pairs = run.expected_checks(sampling, "all", 3, 7)
    assert len(pairs) == 59
    assert ("s3-group-law", "abc=[1:-1/3:-2]") in pairs
    assert ("s4-minors", "lambda=(-9/8, 1*z^3, -1*z^3)") in pairs


def test_tall_points_keep_four_digit_parts_and_pass_the_filters():
    families, _, sampling = run.load_program()
    for seed in range(1, 6):
        p = run.tall_point(families, sampling, seed)
        assert p == run.tall_point(families, sampling, seed)
        for x in (p.b, p.c):
            assert 1000 <= abs(x.numerator) <= 9999 and 1000 <= x.denominator <= 9999
        assert sampling.s3_reject_reason(p) is None and sampling.s2_reject_reason(p) is None

"""Report driver: determinism, exit codes, and output formats."""

import json
import os

import pytest

import skverify.cli as cli
from skverify.cli import RunConfig, main, render_report, run_suite
from skverify.errors import VerificationError


def strip_timing(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("timing"))


def test_reps_suite_exit_zero(capsys):
    assert main(["verify", "reps"]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert "failed=0" in out


def test_json_report_schema(capsys):
    assert main(["verify", "reps", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"engine", "config", "sampling", "checks",
                           "summary", "timing"}
    for check in report["checks"]:
        assert set(check) == {"id", "params", "status", "data", "notes"}
        assert check["status"] in ("pass", "fail", "skipped-degenerate")
    assert report["summary"]["failed"] == 0
    assert report["summary"]["errors"] == 0
    assert report["summary"]["total"] == len(report["checks"])


def test_checks_sorted_by_id_then_params(capsys):
    assert main(["verify", "s3", "--samples", "2", "--seed", "3",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    keys = [(c["id"], c["params"]) for c in report["checks"]]
    assert keys == sorted(keys)


def test_repeat_runs_agree_outside_timing():
    cfg = RunConfig(suite="s3", samples=1, seed=7)
    a = render_report(run_suite(cfg), "text")
    b = render_report(run_suite(cfg), "text")
    assert strip_timing(a) == strip_timing(b)
    assert a.count("timing") >= 1


def test_explicit_parameters_skip_sampling(capsys):
    assert main(["verify", "s3", "--abc", "1,2,3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sampling"] == {}
    assert all(c["params"] == "abc=[1:2:3]" for c in report["checks"])
    assert all(c["status"] == "pass" for c in report["checks"])


def test_sampled_run_echoes_draws(capsys):
    assert main(["verify", "s3", "--samples", "1", "--seed", "7",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sampling"]["s3"]["accepted"] == ["[1:-1/3:-2]"]


def test_degenerate_parameters_reported_as_skips(capsys):
    assert main(["verify", "s3", "--abc", "1,-1,0"]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out
    assert "degenerate" in out
    assert "failed=0" in out


def test_forced_failure_sets_exit_one(capsys, monkeypatch):
    real = cli.Quotient.hilbert_dims

    def lying(self, max_degree):
        return tuple(d + 1 for d in real(self, max_degree))

    monkeypatch.setattr(cli.Quotient, "hilbert_dims", lying)
    assert main(["verify", "s3", "--abc", "1,2,3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_quotient_build_failure_fails_each_check(capsys, monkeypatch):
    def broken(p):
        raise VerificationError(f"no kernel at {p}")

    monkeypatch.setattr(cli.veronese, "build_veronese", broken)
    assert main(["verify", "quotient", "--abc", "1,2,3", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 4
    for c in checks:
        assert c["status"] == "fail"
        assert c["notes"] == "VerificationError: no kernel at [1:2:3]"


def test_s3_build_failure_fails_each_algebra_check(capsys, monkeypatch):
    def broken(p):
        raise VerificationError(f"no algebra at {p}")

    monkeypatch.setattr(cli, "build_s3", broken)
    assert main(["verify", "s3", "--abc", "1,2,3", "--format", "json"]) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for cid in ("s3-hilbert", "s3-center-cubic", "s3-central-quotient-hilbert"):
        assert checks[cid]["status"] == "fail"
        assert checks[cid]["notes"] == "VerificationError: no algebra at [1:2:3]"
    for cid in ("s3-relation-overlap", "s3-point-walk", "s3-group-law"):
        assert checks[cid]["status"] == "pass"


@pytest.mark.parametrize("argv, engines", [
    pytest.param(["s3", "--abc", "1,2,3"], 2, id="s3"),
    pytest.param(["s4", "--alpha", "6,-21"], 2, id="s4"),
    pytest.param(["s2", "--abc", "1,2,3"], 1, id="s2"),
    pytest.param(["quotient", "--abc", "1,2,3"], 4, id="quotient"),
])
def test_one_engine_per_presentation_per_point(capsys, monkeypatch, argv, engines):
    # s3: the algebra and its quotient by the central cubic; s4: the algebra
    # and its abelianization; s2: the algebra; quotient: the 2-generator
    # algebra the map is derived in, the 4-generator algebra, and that
    # algebra modulo the central pair and modulo its first element
    built = []
    real = cli.Quotient.__init__

    def counting(self, p):
        built.append(p)
        real(self, p)

    monkeypatch.setattr(cli.Quotient, "__init__", counting)
    assert main(["verify", *argv]) == 0
    assert len(built) == engines


@pytest.mark.parametrize("suite, generic, degenerate", [
    ("s3", ["--abc", "1,2,3"], ["--abc", "1,-1,0"]),
    ("s2", ["--abc", "1,2,3"], ["--abc", "1,-1,0"]),
    ("quotient", ["--abc", "1,2,3"], ["--abc", "1,-1,0"]),
    ("s4", ["--alpha", "6,-21"], ["--alpha", "1,2"]),
], ids=["s3", "s2", "quotient", "s4"])
def test_degenerate_point_skips_every_check_a_generic_point_runs(capsys, suite, generic,
                                                                  degenerate):
    def point_checks(argv):
        assert main(["verify", suite, *argv, "--samples", "1", "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        # s4-minors runs over sampled lambda triples, not over the alpha point
        return [c for c in checks if not c["params"].startswith("lambda=")]

    ran = {c["id"] for c in point_checks(generic) if c["status"] != "skipped-degenerate"}
    skipped = point_checks(degenerate)
    assert {c["status"] for c in skipped} == {"skipped-degenerate"}
    assert ran and {c["id"] for c in skipped} == ran


def test_malformed_abc_exits_two():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "s3", "--abc", "1,2"])
    assert ei.value.code == 2


def test_unknown_suite_exits_two():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "everything"])
    assert ei.value.code == 2


def test_bad_degree_bound_exits_two(capsys):
    assert main(["verify", "s3", "--abc", "1,2,3", "--max-degree", "9"]) == 2
    assert capsys.readouterr().err


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["verify", "s3", "--abc", "1,2,3", "--seed", "5", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("skverify")
    assert [f.name for f in tmp_path.iterdir()] == ["report.txt"]


def test_max_degree_truncates_hilbert_checks(capsys):
    assert main(["verify", "s3", "--abc", "1,2,3", "--max-degree", "3",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    hil = [c for c in report["checks"] if c["id"] == "s3-hilbert"][0]
    assert len(hil["data"]["dims"]) == 4


def test_max_degree_bounds_both_quotient_hilbert_series(capsys):
    assert main(["verify", "quotient", "--abc", "1,2,3", "--max-degree", "1",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    (hil,) = [c for c in report["checks"] if c["id"] == "quotient-hilbert"]
    assert hil["data"]["mod_pair"] == [1, 4]
    assert hil["data"]["mod_first"] == [1, 4]
    assert hil["data"]["target_even_dims"] == [1, 4]


def test_internal_error_is_recorded_and_exits_three(capsys, monkeypatch):
    def boom(p):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "group_law_record", boom)
    assert main(["verify", "s3", "--abc", "1,2,3", "--format", "json"]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    status = {c["id"]: c["status"] for c in report["checks"]}
    assert status.pop("s3-group-law") == "error"
    assert len(status) == 5 and set(status.values()) == {"pass"}
    law = next(c for c in report["checks"] if c["id"] == "s3-group-law")
    assert law["notes"] == "KeyError: 'boom' (in skverify.cli)"
    assert report["summary"]["errors"] == 1
    assert report["summary"]["failed"] == 0
    assert "KeyError: 'boom'" in captured.err


def test_internal_error_names_the_innermost_layer(capsys, monkeypatch):
    def broken(cubic, u, v):
        raise ZeroDivisionError("no chord")

    # both the tangent-third and the chord cross-check go through _third
    monkeypatch.setattr("skverify.pointscheme._third", broken)
    assert main(["verify", "s3", "--abc", "1,2,3"]) == 3
    out = capsys.readouterr().out
    errors = [l for l in out.splitlines() if l.startswith("ERROR")]
    assert [l.split()[1] for l in errors] == ["s3-center-cubic", "s3-group-law"]
    for line in errors:
        assert line.endswith("(ZeroDivisionError: no chord (in skverify.pointscheme))")
    assert "passed=4 failed=0 skipped=0 errors=2" in out


def test_internal_error_outside_a_check_exits_three(capsys, monkeypatch):
    def boom(p):
        raise KeyError("boom")

    monkeypatch.setattr(cli.sampling, "s3_reject_reason", boom)
    assert main(["verify", "s3", "--abc", "1,2,3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.rstrip().endswith(
        "skverify: internal error: KeyError: 'boom' (in skverify.cli)")


def test_output_file_ignores_a_stale_temp_file(tmp_path, capsys):
    # an interrupted earlier run with the same pid left its temp file behind
    out = tmp_path / "report.txt"
    stale = tmp_path / f".report.txt.{os.getpid()}.tmp"
    stale.write_text("stale\n")
    assert main(["verify", "reps", "--out", str(out)]) == 0
    assert out.read_text().startswith("skverify")
    assert stale.read_text() == "stale\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted([out.name, stale.name])
    # the report gets the mode a plain open() would give it, not the temp file's 0600
    mask = os.umask(0)
    os.umask(mask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~mask


def test_alpha_with_undefined_third_value_exits_two(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["verify", "s4", "--alpha", "1,-1"])
    assert ei.value.code == 2
    assert "error: argument --alpha" in capsys.readouterr().err


def test_output_file_is_replaced_atomically(tmp_path, capsys, monkeypatch):
    out = tmp_path / "report.txt"
    out.write_text("earlier report\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert main(["verify", "reps", "--out", str(out)]) == 2
    assert out.read_text() == "earlier report\n"
    assert [f.name for f in tmp_path.iterdir()] == ["report.txt"]
    assert "disk full" in capsys.readouterr().err

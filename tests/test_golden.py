"""Report bytes outside ``timing`` match the committed golden reports.

The files under ``tests/golden/`` hold the text report of each command line
below with its ``timing`` lines removed. A change that alters a report on
purpose regenerates them, and says so, with

    PYTHONPATH=src python3 -m skverify.cli verify <args> | grep -v '^timing' > tests/golden/<name>
"""

from pathlib import Path

import pytest

from skverify.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "all_samples3_seed7.txt": ["all", "--samples", "3", "--seed", "7"],
    "all_degenerate.txt": ["all", "--abc", "1,-1,0", "--alpha", "1,2",
                           "--samples", "1", "--seed", "7"],
    "s4_samples8_seed7.txt": ["s4", "--samples", "8", "--seed", "7"],
    "quotient_samples8_seed7.txt": ["quotient", "--samples", "8", "--seed", "7"],
    # translation points of finite order: tau has order 2 at [1:1:2], 6 at [1:-12:-12]
    "all_torsion.txt": ["all", "--abc", "1,1,2", "--abc", "1,-12,-12",
                        "--samples", "1", "--seed", "7"],
    "all_maxdeg2.txt": ["all", "--samples", "1", "--seed", "7", "--max-degree", "2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    assert main(["verify", *CASES[name]]) == 0
    out = capsys.readouterr().out
    kept = "".join(l for l in out.splitlines(keepends=True) if not l.startswith("timing"))
    assert kept == (GOLDEN / name).read_text(encoding="utf-8")

"""Correctness gate applied to every ``skverify verify ... --format json`` run.

An invocation passes when all of these hold:

- the exit code is 0;
- every check in the report has status ``pass``;
- every expected (id, params) pair is present (extra checks are allowed);
- the report bytes outside the top-level ``timing`` member equal those of
  the first repetition of the same invocation.

Reports are not compared against a fixed digest, because a change to the
program may legitimately add record fields.
"""

from __future__ import annotations

import json


def stable_part(text: str) -> str:
    """The report text without the lines of its top-level ``timing`` member."""
    out = []
    skipping = False
    for line in text.splitlines(keepends=True):
        if skipping:
            skipping = not line.startswith("  }")
            continue
        if line.startswith('  "timing": '):
            skipping = line.rstrip().endswith("{")
            continue
        out.append(line)
    return "".join(out)


def check_invocation(code: int, text: str, expected: set[tuple[str, str]],
                     reference: str | None) -> tuple[list[str], dict | None, int]:
    """Judge one invocation.

    Returns (problems, parsed report or None, number of checks it accounts
    for).  When ``problems`` is non-empty, all of those checks count as
    failed.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        report = json.loads(text)
        checks = report["checks"]
        seen = {(c["id"], c["params"]) for c in checks}
    except (ValueError, KeyError, TypeError):
        return problems + ["report is not a JSON skverify report"], None, max(len(expected), 1)
    bad = sorted(f"{c['id']} [{c['params']}]: {c['status']}"
                 for c in checks if c["status"] != "pass")
    if bad:
        problems.append("checks not passing: " + "; ".join(bad))
    missing = sorted(f"{cid} [{params}]" for cid, params in expected - seen)
    if missing:
        problems.append("checks missing: " + "; ".join(missing))
    if reference is not None and stable_part(text) != reference:
        problems.append("report differs outside timing from the first repetition")
    return problems, report, max(len(seen), len(expected), 1)

"""skverify benchmark: timed batches of ``skverify verify`` runs.

Usage, from the repository root:

    python3 perfbench/run.py --workload battery --seed 7 --seconds 50 --trace 0

Each workload is a fixed batch of ``python -m skverify.cli verify ...
--format json`` invocations, run one at a time (a closed loop with one client
and no parallel workers).  Every invocation is a fresh interpreter, so the
process-global slice memo and ``irrep_table`` cache start cold, and no
``--cache-dir`` is ever passed.

With ``--trace 0`` the batch is repeated at least ``MIN_REPS`` times and for
about ``--seconds``, and the end-to-end metrics are medians over the
repetitions.
With ``--trace 1`` the batch runs once untraced and once under
``perfbench/tracer.py``, and the per-layer metrics come from the spans.

Every invocation passes through the correctness gate in ``gate.py``.  The
last line of standard output is the JSON result; the line before it holds
the machine information.  See ``perfbench/README.md`` for the workloads and
metric names.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

from gate import check_invocation, stable_part
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

RUN_LIMIT_S = 170.0      # a run must end well inside 180 s
MIN_REPS = 3             # repetitions per --trace 0 run, however long they take
SETUP_GROUP = 3          # set-ups measured before each repetition and after the last
ALGEBRA_SAMPLES = 8

SUITES = ("s3", "s2", "s4", "quotient", "reps")
CHECK_IDS = {
    "reps": ("reps-irrep-table-2", "reps-irrep-table-3", "reps-irrep-table-4",
             "reps-tensor-square-3", "reps-tensor-square-4",
             "reps-antisymmetric-square-4", "reps-invariant-cubics", "reps-twist-table"),
    "s3": ("s3-hilbert", "s3-relation-overlap", "s3-center-cubic",
           "s3-central-quotient-hilbert", "s3-point-walk", "s3-group-law"),
    "s2": ("s2-hilbert", "s2-point-determinant", "s2-central-quartic"),
    "s4": ("s4-hilbert", "s4-centralizer-dim", "s4-abelianized-hilbert"),
    "quotient": ("quotient-map", "quotient-central-pair", "quotient-hilbert",
                 "quotient-c4-image"),
}
SUITE_METRICS = ("s3", "reps", "s4", "quotient")   # s2 is too short to be steady

INCLUSIVE_METRICS = ("pointscheme.group_law_record", "pointscheme.s3_degree3_overlap",
                     "graded.hilbert_dims", "graded.centralizer_slice",
                     "heisenberg.irrep_table", "heisenberg.invariant_subspace")
CALL_METRICS = ("pointscheme.hesse_third", "freealg.evaluate", "graded.ideal_slice",
                "heisenberg.character", "veronese.build_veronese", "veronese.central_pair")


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


@dataclass
class Invocation:
    argv: list[str]
    expected: set[tuple[str, str]]


@dataclass
class Outcome:
    code: int
    text: str
    wall_s: float
    maxrss_mb: float


# -- inputs -----------------------------------------------------------------

def load_program():
    """Import the package under test from ``src``.

    The sources are compiled to ``__pycache__`` first: children then load
    bytecode, as after a normal first run, even where PYTHONDONTWRITEBYTECODE
    would make every child compile them again.
    """
    if not (SRC / "skverify" / "cli.py").is_file():
        raise BenchError(f"no skverify sources under {SRC}")
    compileall.compile_dir(SRC, quiet=1)
    sys.path.insert(0, str(SRC))
    from skverify import families, field, sampling
    return families, field, sampling


def expected_checks(sampling, suite: str, samples: int, seed: int, abc=()) -> set:
    """The (id, params) pairs a run of ``verify <suite>`` must report."""
    suites = SUITES if suite == "all" else (suite,)

    def points(kind):
        return list(abc) or sampling.sample_parameters(kind, samples, seed)

    pairs = set()
    if "reps" in suites:
        pairs |= {(cid, "") for cid in CHECK_IDS["reps"]}
    for name, kind in (("s3", "s3"), ("s2", "s2"), ("quotient", "s2")):
        if name in suites:
            pairs |= {(cid, f"abc={p}") for p in points(kind) for cid in CHECK_IDS[name]}
    if "s4" in suites:
        pairs |= {(cid, f"alpha={t}") for t in sampling.sample_parameters("s4", samples, seed)
                  for cid in CHECK_IDS["s4"]}
        pairs |= {("s4-minors", "lambda=(" + ", ".join(str(v) for v in trip) + ")")
                  for trip in sampling.sample_parameters("sqrt", samples, seed)}
    return pairs


def tall_point(families, sampling, seed: int):
    """A point [1:b:c] with four-digit numerators and denominators that both
    the s3 and the quotient suites accept.

    Numerator and denominator are drawn coprime, so no fraction reduces to
    fewer digits: the group law's coefficient growth, and with it the run
    time, then varies little from seed to seed.
    """
    rng = random.Random(seed)

    def coord():
        while True:
            num, den = rng.randint(1000, 9999), rng.randint(1000, 9999)
            if gcd(num, den) == 1:
                return Fraction(rng.choice((-1, 1)) * num, den)

    while True:
        p = families.AbcParams.of(1, coord(), coord())
        if sampling.s3_reject_reason(p) is None and sampling.s2_reject_reason(p) is None:
            return p


def workload_batch(name: str, seed: int, families, sampling) -> list[Invocation]:
    if name == "battery":
        argv = ["verify", "all", "--samples", "3", "--seed", str(seed)]
        return [Invocation(argv, expected_checks(sampling, "all", 3, seed))]
    if name == "algebra":
        args = ["--samples", str(ALGEBRA_SAMPLES), "--seed", str(seed)]
        return [Invocation(["verify", suite, *args],
                           expected_checks(sampling, suite, ALGEBRA_SAMPLES, seed))
                for suite in ("s4", "quotient")]
    if name == "tall":
        p = tall_point(families, sampling, seed)
        arg = f"{p.a},{p.b},{p.c}"
        return [Invocation(["verify", suite, "--abc", arg],
                           expected_checks(sampling, suite, 1, seed, abc=(p,)))
                for suite in ("s3", "quotient")]
    raise ValueError(f"unknown workload {name!r}")


# -- child processes --------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(argv: list[str], deadline: float) -> Outcome:
    """Run one child to completion; its own peak RSS comes from wait4."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    text = out_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"perfbench: {' '.join(argv[1:])} exited {proc.returncode}\n{tail}", file=sys.stderr)
    return Outcome(proc.returncode, text, wall, usage.ru_maxrss / 1024)


def measure_setup(deadline: float) -> list[float]:
    """Fresh interpreter, ``import skverify.cli`` and ``build_parser()``."""
    code = "import skverify.cli as cli; cli.build_parser()"
    times = []
    for _ in range(SETUP_GROUP):
        o = spawn([sys.executable, "-c", code], deadline)
        if o.code != 0:
            raise BenchError("cannot import skverify.cli")
        times.append(o.wall_s)
    return times


class Batch:
    """Runs a workload's invocations and tallies the correctness gate."""

    def __init__(self, invocations: list[Invocation], deadline: float) -> None:
        self.invocations = invocations
        self.deadline = deadline
        self.references: list[str | None] = [None] * len(invocations)
        self.attempted = 0
        self.failed = 0

    def _judge(self, i: int, code: int, text: str) -> dict | None:
        inv = self.invocations[i]
        problems, report, nchecks = check_invocation(code, text, inv.expected, self.references[i])
        self.attempted += nchecks
        if problems:
            self.failed += nchecks
            print(f"perfbench: gate failed for {' '.join(inv.argv)}: {'; '.join(problems)}",
                  file=sys.stderr)
            return None
        if self.references[i] is None:
            self.references[i] = stable_part(text)
        return report

    def run(self) -> dict:
        """One untraced repetition of the whole batch."""
        wall = rss = 0.0
        suites = dict.fromkeys(SUITE_METRICS, 0.0)
        for i, inv in enumerate(self.invocations):
            o = spawn([sys.executable, "-m", "skverify.cli", *inv.argv, "--format", "json"],
                      self.deadline)
            wall += o.wall_s
            rss = max(rss, o.maxrss_mb)
            report = self._judge(i, o.code, o.text)
            if report is None:
                continue
            for key, secs in report["timing"]["checks"].items():
                suite = key.split("-", 1)[0]
                if suite in suites:
                    suites[suite] += secs
        return {"wall_s": wall, "peak_rss_mb": rss, "suites": suites}

    def run_traced(self) -> dict:
        """One repetition under the tracer; returns the summed span aggregates."""
        wall = 0.0
        total = {"names": {}, "root_s": 0.0, "ideal_slice_computed": 0,
                 "rref": {"calls": 0, "rows_in": 0, "rank_out": 0, "max_cols": 0,
                          "max_coeff_bits": 0}}
        for i, inv in enumerate(self.invocations):
            o = spawn([sys.executable, str(TRACER), *inv.argv, "--format", "json"], self.deadline)
            wall += o.wall_s
            try:
                payload = json.loads(o.text)
            except ValueError:
                payload = {"exit": o.code or 1, "report": ""}
            if self._judge(i, o.code or payload["exit"], payload["report"]) is None:
                continue
            merge_trace(total, payload["trace"])
        total["wall_s"] = wall
        return total


def merge_trace(total: dict, trace: dict) -> None:
    for name, agg in trace["names"].items():
        acc = total["names"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for k in acc:
            acc[k] += agg[k]
    total["root_s"] += trace["root_s"]
    total["ideal_slice_computed"] += trace["ideal_slice_computed"]
    for k, v in trace["rref"].items():
        r = total["rref"]
        r[k] = max(r[k], v) if k.startswith("max_") else r[k] + v


# -- metrics ----------------------------------------------------------------

def end_to_end(batch: Batch, seconds: float) -> dict:
    """Repeat the batch ``MIN_REPS`` times, and more while another repetition
    is expected to end within ``seconds``.  Set-up is measured in groups
    between the repetitions, so its median samples the whole run rather than
    one moment of it."""
    reps, setups = [], []
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - start + statistics.mean(
            r["wall_s"] for r in reps) <= seconds:
        if reps and perf_counter() + reps[-1]["wall_s"] > batch.deadline:
            break
        setups += measure_setup(batch.deadline)
        reps.append(batch.run())
    setups += measure_setup(batch.deadline)
    print(json.dumps({"repetitions": [{k: r[k] for k in ("wall_s", "peak_rss_mb")}
                                      for r in reps], "setup_s": setups}))
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _select(names: dict, layer: str, func: str) -> list[dict]:
    """Aggregates of ``layer.func`` and of any ``layer.Class.func`` method."""
    return [agg for name, agg in names.items()
            if name.split(".")[0] == layer and name.split(".")[-1] == func]


def per_layer(batch: Batch, field_ns: dict) -> dict:
    plain = batch.run()
    traced = batch.run_traced()
    names, rref = traced["names"], traced["rref"]
    m = {}
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (sum(a["self_s"] for n, a in names.items()
                                          if n.split(".")[0] == layer), "s")
    for qual in INCLUSIVE_METRICS:
        m[f"{qual}.total_s"] = (sum(a["total_s"] for a in _select(names, *qual.split("."))), "s")
    for qual in CALL_METRICS:
        m[f"{qual}.calls"] = (sum(a["calls"] for a in _select(names, *qual.split("."))), "count")
    slices = m["graded.ideal_slice.calls"][0]
    m["graded.ideal_slice.hit_ratio"] = (
        (slices - traced["ideal_slice_computed"]) / slices if slices else 0.0, "ratio")
    m["linalg.rref.calls"] = (rref["calls"], "count")
    m["linalg.rref.rows_in"] = (rref["rows_in"], "count")
    m["linalg.rref.useful_ratio"] = (
        rref["rank_out"] / rref["rows_in"] if rref["rows_in"] else 0.0, "ratio")
    m["linalg.rref.max_cols"] = (rref["max_cols"], "count")
    m["linalg.rref.max_coeff_bits"] = (rref["max_coeff_bits"], "bits")
    m["linalg.rref.self_s"] = (sum(a["self_s"] for a in _select(names, "linalg", "rref")), "s")
    for suite in SUITE_METRICS:
        m[f"suite_s.{suite}"] = (plain["suites"][suite], "s")
    for key, ns in field_ns.items():
        m[key] = (ns, "ns")
    m["trace.total_s"] = (traced["root_s"], "s")
    m["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    return m


def field_microbench(field, families, sampling, seed: int) -> dict:
    """Nanoseconds per multiply or inverse, on operands taken from the
    workloads' own parameters: the seed's first sampled s3 point (small),
    the tall workload's point, and a Q(zeta_12) element built from both."""
    small = sampling.sample_parameters("s3", 1, seed)[0]
    tall = tall_point(families, sampling, seed)
    z = field.root_of_unity(12)
    fe = field.fe
    cyc_x = fe(small.b) + fe(small.c) * z
    cyc_y = fe(tall.b) * z * z + fe(small.b) * z ** 3 + fe(small.c)
    cases = {
        "field.mul_ns.rational_small": (lambda x, y: x * y, fe(small.b), fe(small.c)),
        "field.mul_ns.rational_tall": (lambda x, y: x * y, fe(tall.b), fe(tall.c)),
        "field.mul_ns.cyclotomic": (lambda x, y: x * y, cyc_x, cyc_y),
        "field.inverse_ns.cyclotomic": (lambda x, y: x.inverse(), cyc_y, None),
    }
    out = {}
    for key, (op, x, y) in cases.items():
        loops = 2000
        samples = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(loops):
                op(x, y)
            samples.append((perf_counter() - t0) / loops * 1e9)
        out[key] = statistics.median(samples)
    return out


def machine_info() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_rev": rev}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("battery", "algebra", "tall"), required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    info = machine_info()
    info["load_1m_start"] = os.getloadavg()[0]
    try:
        families, field, sampling = load_program()
        batch = Batch(workload_batch(args.workload, args.seed, families, sampling), deadline)
        if args.trace:
            metrics = per_layer(batch, field_microbench(field, families, sampling, args.seed))
        else:
            metrics = end_to_end(batch, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        for leftover in (WORK / "stdout", WORK / "stderr"):
            leftover.unlink(missing_ok=True)
        if WORK.exists():
            WORK.rmdir()
    info["load_1m_end"] = os.getloadavg()[0]
    info["run_s"] = perf_counter() - started
    print(json.dumps({"machine": info}))
    print(json.dumps({
        "correct": batch.failed == 0,
        "attempted": batch.attempted,
        "failed": batch.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

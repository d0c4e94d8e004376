"""Batch verification driver.

Runs the per-family check suites over explicit or sampled parameters and
writes a machine-readable report.  Reports are deterministic for a given
(config, seed): records are sorted by a canonical key and all wall-clock
data is isolated in the trailing timing section.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import __version__, sampling, veronese
from .errors import ParameterError, SamplingExhaustedError, SkverifyError
from .families import AbcParams, AlphaTriple, SextupleParams, build_s2, build_s3, build_s4
from .field import FieldElem, fe
from .freealg import span
from .graded import Quotient
from .heisenberg import (HeisenbergGroup, antisymmetric_character, decompose_character,
                         h3_gen_rep, h4_gen_rep, invariant_subspace, irrep_table,
                         rep_on_degree, twist_equivalence_table)
from .pointscheme import (ProjPoint, group_law_record, hesse_add, hesse_origin,
                          invariant_cubic_basis, s2_point_determinant,
                          s3_degree3_overlap, s3_next_point, s4_minor_membership,
                          verify_c3_description)

SUITES = ("s3", "s2", "s4", "quotient", "reps")


@dataclass(frozen=True)
class RunConfig:
    suite: str = "all"
    abc: tuple = ()
    alpha: tuple = ()
    samples: int = 3
    seed: int = 0
    max_degree: int | None = None
    fmt: str = "text"
    out: str | None = None

    def validate(self) -> None:
        if self.suite not in SUITES + ("all",):
            raise ParameterError(f"unknown suite {self.suite!r}")
        if self.samples < 1:
            raise ParameterError("sample count must be >= 1")
        if self.max_degree is not None and not 1 <= self.max_degree <= 6:
            raise ParameterError("max degree must lie in 1..6")
        if self.fmt not in ("json", "text"):
            raise ParameterError(f"unknown format {self.fmt!r}")

    def cutoff(self, ceiling: int) -> int:
        d = self.max_degree if self.max_degree is not None else ceiling
        return min(d, ceiling)


def _stringify(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if value is None:
        return None
    return str(value)


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def _layer(exc: BaseException) -> str:
    """The innermost skverify module in the traceback of ``exc``."""
    layer = "skverify"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = os.path.abspath(frame.f_code.co_filename)
        if os.path.dirname(path) == _PACKAGE_DIR:
            layer = "skverify." + os.path.splitext(os.path.basename(path))[0]
    return layer


class _Collector:
    def __init__(self) -> None:
        self.checks: list[dict] = []
        self.timing: dict[str, float] = {}

    def run(self, cid: str, params: str, fn) -> None:
        t0 = time.perf_counter()
        try:
            ok, data, notes = fn()
            status = "pass" if ok else "fail"
        except SkverifyError as exc:
            status, data, notes = "fail", {}, f"{type(exc).__name__}: {exc}"
        except Exception as exc:
            # an internal fault is not a verdict on the mathematics: record it
            # as an error, print the traceback, and go on with the other checks
            print(f"skverify: internal error in {cid} [{params}]", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            status, data = "error", {}
            notes = f"{type(exc).__name__}: {exc} (in {_layer(exc)})"
        self.timing[f"{cid} [{params}]"] = round(time.perf_counter() - t0, 3)
        self.checks.append({"id": cid, "params": params, "status": status,
                            "data": _stringify(data), "notes": notes})

    def skip(self, cid: str, params: str, reason: str) -> None:
        self.checks.append({"id": cid, "params": params, "status": "skipped-degenerate",
                            "data": {}, "notes": f"degenerate: {reason}"})


def _abc_params_text(p: AbcParams) -> str:
    return f"abc={p}"


def _alpha_text(t: AlphaTriple) -> str:
    return f"alpha={t}"


def _triple_text(trip) -> str:
    return "lambda=(" + ", ".join(str(v) for v in trip) + ")"


# -- suites -----------------------------------------------------------------

def _reps_suite(col: _Collector) -> None:
    one, zero = fe(1), fe(0)
    for n, count, sqsum in ((2, 5, 8), (3, 11, 27), (4, 22, 64)):
        def table_check(n=n, count=count, sqsum=sqsum):
            table = irrep_table(n)
            chars = [r.character() for r in table]
            ortho = all(chars[i].inner(chars[j]) == (one if i == j else zero)
                        for i in range(len(chars)) for j in range(i, len(chars)))
            s = sum(r.dim ** 2 for r in table)
            ok = len(table) == count and s == sqsum and ortho
            return ok, {"irreps": len(table), "squared_dim_sum": s,
                        "orthonormal_characters": ortho}, ""
        col.run(f"reps-irrep-table-{n}", "", table_check)

    def tensor3():
        chi = h3_gen_rep().character()
        d = decompose_character(HeisenbergGroup(3), chi * chi, 9)
        return d == {"H3:V2": 3}, {"decomposition": d}, ""
    col.run("reps-tensor-square-3", "", tensor3)

    def tensor4():
        chi = h4_gen_rep().character()
        d = decompose_character(HeisenbergGroup(4), chi * chi, 16)
        want = {f"H4:V_{{{i},{j}}}": 2 for i in (0, 1) for j in (0, 1)}
        return d == want, {"decomposition": d}, ""
    col.run("reps-tensor-square-4", "", tensor4)

    def wedge4():
        chi = antisymmetric_character(h4_gen_rep())
        d = decompose_character(HeisenbergGroup(4), chi, 6)
        want = {"H4:V_{0,1}": 1, "H4:V_{1,0}": 1, "H4:V_{1,1}": 1}
        return d == want, {"decomposition": d}, ""
    col.run("reps-antisymmetric-square-4", "", wedge4)

    def cubics():
        inv = invariant_subspace(rep_on_degree(h3_gen_rep(), 3))
        match = span(invariant_cubic_basis()) == inv
        return inv.dim == 3 and match, {"invariant_dim": inv.dim, "basis_match": match}, ""
    col.run("reps-invariant-cubics", "", cubics)

    def twist():
        table = twist_equivalence_table()
        eq = sum(1 for v in table.values() if v)
        return True, {"pairs": len(table), "equivalent": eq}, "table cross-checked against the congruence rule"
    col.run("reps-twist-table", "", twist)


def _s3_suite(col: _Collector, plist, cfg: RunConfig) -> None:
    d3 = cfg.cutoff(6)
    ids = ("s3-hilbert", "s3-relation-overlap", "s3-center-cubic",
           "s3-central-quotient-hilbert", "s3-point-walk", "s3-group-law")
    for p in plist:
        params = _abc_params_text(p)
        reason = sampling.s3_reject_reason(p)
        if reason is not None:
            for cid in ids:
                col.skip(cid, params, reason)
            continue

        # one engine per point; a build failure fails each check with the same notes
        @cache
        def alg(p=p):
            return Quotient(build_s3(p))

        def hilb(alg=alg):
            dims = alg().hilbert_dims(d3)
            want = tuple((m + 1) * (m + 2) // 2 for m in range(d3 + 1))
            return dims == want, {"dims": dims, "expected": want}, ""
        col.run("s3-hilbert", params, hilb)

        def overlap(p=p):
            rec = s3_degree3_overlap(p)
            ok = (rec["sum_dim"] == 17 and rec["meet_dim"] == 1
                  and rec["meet_is_relation_combo"] and rec["invariant_dim"] == 1
                  and rec["invariant_is_meet"])
            return ok, rec, ""
        col.run("s3-relation-overlap", params, overlap)

        def center(p=p, alg=alg):
            rec = verify_c3_description(p, alg())
            return rec["pass"], rec, ""
        col.run("s3-center-cubic", params, center)

        def cq(alg=alg):
            c3 = alg().centralizer_slice(3).basis()[0]
            dims = Quotient(alg().p.adjoin([c3])).hilbert_dims(d3)
            want = tuple(1 if m == 0 else (3 if m == 1 else 3 * m) for m in range(d3 + 1))
            return dims == want, {"dims": dims, "expected": want}, ""
        col.run("s3-central-quotient-hilbert", params, cq)

        def walk(p=p):
            tau = ProjPoint.of(p.a, p.b, p.c)
            start = s3_next_point(p, hesse_origin())
            one = s3_next_point(p, tau)
            two = s3_next_point(p, one)
            ok = (start == tau and one == hesse_add(p, tau, tau)
                  and two == hesse_add(p, one, tau))
            return ok, {"from_origin": start, "first": one, "second": two}, ""
        col.run("s3-point-walk", params, walk)

        def law(p=p):
            rec = group_law_record(p, 10)
            return rec["pass"], rec, ""
        col.run("s3-group-law", params, law)


def _s2_suite(col: _Collector, plist, cfg: RunConfig) -> None:
    d2 = cfg.cutoff(6)
    ids = ("s2-hilbert", "s2-point-determinant", "s2-central-quartic")
    for p in plist:
        params = _abc_params_text(p)
        reason = sampling.s2_reject_reason(p)
        if reason is not None:
            for cid in ids:
                col.skip(cid, params, reason)
            continue

        @cache
        def alg(p=p):
            return Quotient(build_s2(p))

        def hilb(alg=alg):
            dims = alg().hilbert_dims(d2)
            want = tuple((m + 2) ** 2 // 4 for m in range(d2 + 1))
            return dims == want, {"dims": dims, "expected": want}, ""
        col.run("s2-hilbert", params, hilb)

        def det(p=p):
            rec = s2_point_determinant(p)
            ok = rec["matrix_matches_reference"] and rec["proportional"]
            rec.pop("determinant")
            return ok, rec, ""
        col.run("s2-point-determinant", params, det)

        def quartic(p=p, alg=alg):
            rec = veronese.verify_c4_central(p, alg())
            return rec["pass"], rec, "centralizer dimension recorded, not asserted"
        col.run("s2-central-quartic", params, quartic)


def _s4_suite(col: _Collector, alphas, lambdas, cfg: RunConfig) -> None:
    d4 = cfg.cutoff(5)
    ids = ("s4-hilbert", "s4-centralizer-dim", "s4-abelianized-hilbert")
    for t in alphas:
        params = _alpha_text(t)
        reason = sampling.alpha_reject_reason(t)
        if reason is not None:
            for cid in ids:
                col.skip(cid, params, reason)
            continue

        @cache
        def alg(t=t):
            return Quotient(build_s4(SextupleParams.from_alpha(t)))

        def hilb(alg=alg):
            dims = alg().hilbert_dims(d4)
            want = tuple((m + 1) * (m + 2) * (m + 3) // 6 for m in range(d4 + 1))
            return dims == want, {"dims": dims, "expected": want}, ""
        col.run("s4-hilbert", params, hilb)

        def cent(alg=alg):
            dim = alg().centralizer_slice(2).dim
            return dim == 2, {"centralizer_dim": dim}, ""
        col.run("s4-centralizer-dim", params, cent)

        def ab(alg=alg):
            dims = Quotient(alg().p.abelianized()).hilbert_dims(d4)
            want = tuple(1 if m == 0 else 4 for m in range(d4 + 1))
            return dims == want, {"dims": dims, "expected": want}, ""
        col.run("s4-abelianized-hilbert", params, ab)

    for trip in lambdas:
        params = _triple_text(trip)

        def minors(trip=trip):
            rec = s4_minor_membership(*trip)
            ok = rec["pass"] and rec["perturbed_failures"] >= 1
            rec.pop("memberships")
            return ok, rec, "perturbed scale must break at least one minor"
        col.run("s4-minors", params, minors)


def _quotient_suite(col: _Collector, plist, cfg: RunConfig) -> None:
    d4 = cfg.cutoff(5)
    ids = ("quotient-map", "quotient-central-pair", "quotient-hilbert", "quotient-c4-image")
    for p in plist:
        params = _abc_params_text(p)
        reason = sampling.s2_reject_reason(p)
        if reason is not None:
            for cid in ids:
                col.skip(cid, params, reason)
            continue

        # one build per point; a build failure fails each check with the same notes
        @cache
        def vm(p=p):
            return veronese.build_veronese(p)

        def qmap(vm=vm):
            rec = veronese.verify_quotient_map(vm())
            rec.pop("extra_relation")
            notes = ""
            if rec["reference_form_mismatches"]:
                notes = ("reference relation couple(s) "
                         f"{rec['reference_form_mismatches']} not in the derived kernel")
            return rec["pass"], rec, notes
        col.run("quotient-map", params, qmap)

        def pair(vm=vm):
            rec = veronese.verify_central_pair(vm())
            return rec["pass"], rec, ""
        col.run("quotient-central-pair", params, pair)

        def hilb(vm=vm):
            cp = vm().central_pair
            pres = build_s4(cp.sextuple)
            both = Quotient(pres.adjoin([cp.omega1, cp.omega2])).hilbert_dims(d4)
            want = tuple(1 if m == 0 else 4 * m for m in range(d4 + 1))
            evens = vm().algebra.hilbert_dims(6)[0::2]
            single = Quotient(pres.adjoin([cp.omega1])).hilbert_dims(len(evens) - 1)
            ok = both == want and single == evens
            return ok, {"mod_pair": both, "expected": want,
                        "mod_first": single, "target_even_dims": evens}, ""
        col.run("quotient-hilbert", params, hilb)

        def image(vm=vm):
            rec = veronese.extract_c4(vm())
            return rec["pass"], rec, "mu recorded, not asserted"
        col.run("quotient-c4-image", params, image)


# -- assembly ---------------------------------------------------------------

def run_suite(config: RunConfig) -> dict:
    config.validate()
    suites = SUITES if config.suite == "all" else (config.suite,)
    t0 = time.perf_counter()
    col = _Collector()
    sampling_echo: dict = {}

    def sampled(kind: str):
        vals, events = sampling.sample_with_log(kind, config.samples, config.seed)
        sampling_echo[kind] = {
            "accepted": [str(v) for v in vals],
            "rejected": [{"candidate": e.candidate, "reason": e.reason} for e in events],
        }
        return vals

    abc_generic = list(config.abc)
    s2_params = None
    if "reps" in suites:
        _reps_suite(col)
    if "s3" in suites:
        plist = abc_generic or sampled("s3")
        _s3_suite(col, plist, config)
    if "s2" in suites or "quotient" in suites:
        s2_params = abc_generic or sampled("s2")
    if "s2" in suites:
        _s2_suite(col, s2_params, config)
    if "s4" in suites:
        alphas = list(config.alpha) or sampled("s4")
        lambdas = sampled("sqrt")
        _s4_suite(col, alphas, lambdas, config)
    if "quotient" in suites:
        _quotient_suite(col, s2_params, config)

    checks = sorted(col.checks, key=lambda c: (c["id"], c["params"]))
    passed = sum(1 for c in checks if c["status"] == "pass")
    failed = sum(1 for c in checks if c["status"] == "fail")
    skipped = sum(1 for c in checks if c["status"] == "skipped-degenerate")
    errors = sum(1 for c in checks if c["status"] == "error")
    return {
        "engine": {"name": "skverify", "version": __version__, "prng": "splitmix64"},
        "config": {
            "suite": config.suite,
            "abc": [str(p) for p in config.abc],
            "alpha": [str(t) for t in config.alpha],
            "samples": config.samples,
            "seed": config.seed,
            "max_degree": config.max_degree,
            "format": config.fmt,
        },
        "sampling": sampling_echo,
        "checks": checks,
        "summary": {"total": len(checks), "passed": passed,
                    "failed": failed, "skipped": skipped, "errors": errors},
        "timing": {"total_seconds": round(time.perf_counter() - t0, 3),
                   "checks": col.timing},
    }


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, default=str) + "\n"
    lines = []
    eng = report["engine"]
    lines.append(f"{eng['name']} {eng['version']} (prng {eng['prng']})")
    cfgpairs = " ".join(f"{k}={v}" for k, v in report["config"].items())
    lines.append(f"config: {cfgpairs}")
    for kind, info in report["sampling"].items():
        lines.append(f"sampling {kind}: accepted={info['accepted']} "
                     f"rejected={len(info['rejected'])}")
        for ev in info["rejected"]:
            lines.append(f"sampling {kind} rejection: {ev['candidate']} -- {ev['reason']}")
    tag = {"pass": "PASS", "fail": "FAIL", "skipped-degenerate": "SKIP", "error": "ERROR"}
    for c in report["checks"]:
        parts = [tag[c["status"]], c["id"]]
        if c["params"]:
            parts.append(f"[{c['params']}]")
        parts.extend(f"{k}={v}" for k, v in c["data"].items())
        if c["notes"]:
            parts.append(f"({c['notes']})")
        lines.append(" ".join(parts))
    s = report["summary"]
    lines.append(f"summary: total={s['total']} passed={s['passed']} "
                 f"failed={s['failed']} skipped={s['skipped']} errors={s['errors']}")
    lines.append(f"timing: total={report['timing']['total_seconds']}s")
    for key, secs in report["timing"]["checks"].items():
        lines.append(f"timing: {key} {secs}s")
    return "\n".join(lines) + "\n"


def _parse_abc(text: str) -> AbcParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated rationals")
    try:
        return AbcParams.of(*(Fraction(t) for t in parts))
    except (ValueError, ZeroDivisionError, ParameterError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_alpha(text: str) -> AlphaTriple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated rationals")
    try:
        a1, a2 = (fe(Fraction(t)) for t in parts)
        if not 1 + a1 * a2:
            raise argparse.ArgumentTypeError("alpha1*alpha2 = -1 leaves the third value undefined")
        return AlphaTriple.complete(a1, a2)
    except (ValueError, ZeroDivisionError, ParameterError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skverify",
                                     description="Exact verification suites for the three graded algebra families.")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES + ("all",))
    v.add_argument("--abc", action="append", type=_parse_abc, default=[],
                   metavar="a,b,c", help="explicit projective parameter triple; repeatable")
    v.add_argument("--alpha", action="append", type=_parse_alpha, default=[],
                   metavar="a1,a2", help="explicit alpha pair, third value derived; repeatable")
    v.add_argument("--samples", type=int, default=3)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-degree", type=int, default=None)
    v.add_argument("--format", choices=("json", "text"), default="text")
    v.add_argument("--out", default=None)
    return parser


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same directory.

    The report appears whole or not at all: a crash or a failed write leaves
    an earlier file at ``path`` untouched and removes the temp file.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(suite=args.suite, abc=tuple(args.abc), alpha=tuple(args.alpha),
                       samples=args.samples, seed=args.seed, max_degree=args.max_degree,
                       fmt=args.format, out=args.out)
    try:
        report = run_suite(config)
        text = render_report(report, config.fmt)
    except (ParameterError, SamplingExhaustedError) as exc:
        print(f"skverify: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # outside any check (a reject predicate, sampling, rendering): no
        # report can be trusted, so none is written
        traceback.print_exc(file=sys.stderr)
        print(f"skverify: internal error: {type(exc).__name__}: {exc} (in {_layer(exc)})",
              file=sys.stderr)
        return 3
    if config.out:
        try:
            _write_atomic(config.out, text)
        except OSError as exc:
            print(f"skverify: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    summary = report["summary"]
    if summary["errors"]:
        return 3
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

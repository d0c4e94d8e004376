"""Batch verification: one check table per family, one ``FAMILIES`` row per
point table (with its degree ceiling), report rendering, the ``skverify`` command.

``run_suite`` runs each row over explicit or sampled parameters.  Reports are
deterministic for a given (config, seed): records are sorted by a canonical
key and all wall-clock data is isolated in the trailing timing section.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from . import __version__, sampling, veronese
from .errors import ParameterError, SamplingExhaustedError, SkverifyError
from .families import AbcParams, AlphaTriple, SextupleParams, build_s2, build_s3, build_s4
from .field import ONE, ZERO
from .freealg import span
from .graded import Quotient, series
from .heisenberg import (antisymmetric_character, decompose, decompose_character, h3_gen_rep,
                         h4_gen_rep, invariant_subspace, irrep_table, rep_on_degree,
                         twist_equivalence_table)
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
        top = max(row[-1] for row in FAMILIES if row[-1])
        if self.max_degree is not None and not 1 <= self.max_degree <= top:
            raise ParameterError(f"max degree must lie in 1..{top}")
        if self.fmt not in ("json", "text"):
            raise ParameterError(f"unknown format {self.fmt!r}")

    def cutoff(self, ceiling: int) -> int:
        d = self.max_degree if self.max_degree is not None else ceiling
        return min(d, ceiling)


def _stringify(value):
    if value is None or isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
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


# -- checks -----------------------------------------------------------------
# A point check is ``check(p, engine, d) -> (ok, data, notes)``: ``p`` is the
# point, ``engine()`` its one engine (built on the first call, so a failed
# build fails each check that asks for it with the same notes) and ``d`` the
# degree cutoff.  A family's table lists its checks as (id, check) rows.

def _verdict(rec: dict, notes: str = ""):
    return rec["pass"], rec, notes


def _hilbert(num, den, of=None):
    """A check that the algebra, or the quotient presented by ``of(algebra)``, has
    the Hilbert series num(t) / prod_b (1 - t^b) through degree d (graded.series)."""
    def check(p, alg, d):
        dims = (alg() if of is None else Quotient(of(alg()))).hilbert_dims(d)
        want = series(num, den, d)
        return dims == want, {"dims": dims, "expected": want}, ""
    return check


def _s3_overlap(p, alg, d):
    rec = s3_degree3_overlap(p)
    ok = (rec["sum_dim"] == 17 and rec["meet_dim"] == 1
          and rec["meet_is_relation_combo"] and rec["invariant_dim"] == 1
          and rec["invariant_is_meet"])
    return ok, rec, ""


def _mod_central_cubic(q: Quotient):
    return q.p.adjoin([q.centralizer_slice(3).basis()[0]])


def _s3_walk(p, alg, d):
    tau = ProjPoint.of(p.a, p.b, p.c)
    start = s3_next_point(p, hesse_origin())
    one = s3_next_point(p, tau)
    two = s3_next_point(p, one)
    ok = start == tau and one == hesse_add(p, tau, tau) and two == hesse_add(p, one, tau)
    return ok, {"from_origin": start, "first": one, "second": two}, ""


S3 = (
    ("s3-hilbert", _hilbert((1,), (1, 1, 1))),
    ("s3-relation-overlap", _s3_overlap),
    ("s3-center-cubic", lambda p, alg, d: _verdict(verify_c3_description(p, alg()))),
    ("s3-central-quotient-hilbert", _hilbert((1, 0, 0, -1), (1, 1, 1), _mod_central_cubic)),
    ("s3-point-walk", _s3_walk),
    ("s3-group-law", lambda p, alg, d: _verdict(group_law_record(p))),
)


def _s2_determinant(p, alg, d):
    rec = s2_point_determinant(p)
    rec.pop("determinant")
    return rec["matrix_matches_reference"] and rec["proportional"], rec, ""


def _s2_quartic(p, alg, d):
    rec = veronese.verify_c4_central(p, alg())
    return _verdict(rec, "centralizer dimension recorded, not asserted")


S2 = (
    ("s2-hilbert", _hilbert((1,), (1, 1, 2))),
    ("s2-point-determinant", _s2_determinant),
    ("s2-central-quartic", _s2_quartic),
)


def _s4_centralizer(t, alg, d):
    dim = alg().centralizer_slice(2).dim
    return dim == 2, {"centralizer_dim": dim}, ""


def _s4_minors(t, _, d):
    rec = s4_minor_membership(*t)
    rec.pop("memberships")
    return _verdict(rec, "perturbed scale must break at least one minor")


S4 = (
    ("s4-hilbert", _hilbert((1,), (1, 1, 1, 1))),
    ("s4-centralizer-dim", _s4_centralizer),
    ("s4-abelianized-hilbert", _hilbert((1, 3), (1,), lambda q: q.p.abelianized())),
)
S4_MINORS = (("s4-minors", _s4_minors),)


def _quotient_map(p, vm, d):
    rec = veronese.verify_quotient_map(vm())
    bad = rec["reference_form_mismatches"]
    notes = f"reference relation couple(s) {bad} not in the derived kernel" if bad else ""
    return _verdict(rec, notes)


def _quotient_hilbert(p, vm, d):
    cp = vm().central_pair
    pres = build_s4(cp.sextuple)
    both = Quotient(pres.adjoin([cp.omega1, cp.omega2])).hilbert_dims(d)
    want = series((1, 2, 1), (1, 1), d)
    # s4 degree k is s2 degree 2k, and the s2 engine stops at degree 6
    k = min(d, 3)
    evens = vm().algebra.hilbert_dims(2 * k)[0::2]
    single = Quotient(pres.adjoin([cp.omega1])).hilbert_dims(k)
    ok = both == want and single == evens
    return ok, {"mod_pair": both, "expected": want,
                "mod_first": single, "target_even_dims": evens}, ""


def _quotient_c4_image(p, vm, d):
    return _verdict(veronese.extract_c4(vm()), "mu recorded, not asserted")


QUOTIENT = (
    ("quotient-map", _quotient_map),
    ("quotient-central-pair", lambda p, vm, d: _verdict(veronese.verify_central_pair(vm()))),
    ("quotient-hilbert", _quotient_hilbert),
    ("quotient-c4-image", _quotient_c4_image),
)


def _irreps(n, count, sqsum):
    table = irrep_table(n)
    chars = [r.character() for r in table]
    ortho = all(chars[i].inner(chars[j]) == (ONE if i == j else ZERO)
                for i in range(len(chars)) for j in range(i, len(chars)))
    s = sum(r.dim ** 2 for r in table)
    ok = len(table) == count and s == sqsum and ortho
    return ok, {"irreps": len(table), "squared_dim_sum": s, "orthonormal_characters": ortho}, ""


def _tensor_square(rep, want):
    d = decompose(rep_on_degree(rep(), 2))
    return d == want, {"decomposition": d}, ""


def _wedge4():
    rep = h4_gen_rep()
    d = decompose_character(rep.group, antisymmetric_character(rep), 6)
    want = {"H4:V_{0,1}": 1, "H4:V_{1,0}": 1, "H4:V_{1,1}": 1}
    return d == want, {"decomposition": d}, ""


def _cubics():
    inv = invariant_subspace(rep_on_degree(h3_gen_rep(), 3))
    match = span(invariant_cubic_basis()) == inv
    return inv.dim == 3 and match, {"invariant_dim": inv.dim, "basis_match": match}, ""


def _twist():
    table = twist_equivalence_table()
    eq = sum(1 for v in table.values() if v)
    return True, {"pairs": len(table), "equivalent": eq}, "table cross-checked against the congruence rule"


REPS = (
    ("reps-irrep-table-2", partial(_irreps, 2, 5, 8)),
    ("reps-irrep-table-3", partial(_irreps, 3, 11, 27)),
    ("reps-irrep-table-4", partial(_irreps, 4, 22, 64)),
    ("reps-tensor-square-3", partial(_tensor_square, h3_gen_rep, {"H3:V2": 3})),
    ("reps-tensor-square-4", partial(_tensor_square, h4_gen_rep,
                                     {f"H4:V_{{{i},{j}}}": 2 for i in (0, 1) for j in (0, 1)})),
    ("reps-antisymmetric-square-4", _wedge4),
    ("reps-invariant-cubics", _cubics),
    ("reps-twist-table", _twist),
)


# One row per point table: suite, checks, the report's label for a point, the
# sampling kind that draws points when none are given, reject(p) (why a point
# is degenerate, or None), build(p) (the engine its checks share) and the
# highest degree they compute.  reject and build look their functions up when
# called, so a patched or traced one is what runs; s4-minors has neither.
FAMILIES = (
    ("s3", S3, "abc", "s3", lambda p: sampling.s3_reject_reason(p),
     lambda p: Quotient(build_s3(p)), 6),
    ("s2", S2, "abc", "s2", lambda p: sampling.s2_reject_reason(p),
     lambda p: Quotient(build_s2(p)), 6),
    ("s4", S4, "alpha", "s4", lambda t: sampling.alpha_reject_reason(t),
     lambda t: Quotient(build_s4(SextupleParams.from_alpha(t))), 5),
    ("s4", S4_MINORS, "lambda", "sqrt", None, None, None),
    ("quotient", QUOTIENT, "abc", "s2", lambda p: sampling.s2_reject_reason(p),
     lambda p: veronese.build_veronese(p), 5),
)


# -- assembly ---------------------------------------------------------------

def run_suite(config: RunConfig) -> dict:
    config.validate()
    suites = SUITES if config.suite == "all" else (config.suite,)
    t0 = time.perf_counter()
    col = _Collector()
    sampling_echo: dict = {}

    @cache
    def sampled(kind: str):
        vals, events = sampling.sample_with_log(kind, config.samples, config.seed)
        sampling_echo[kind] = {
            "accepted": [str(v) for v in vals],
            "rejected": [{"candidate": e.candidate, "reason": e.reason} for e in events],
        }
        return vals

    if "reps" in suites:
        for cid, check in REPS:
            col.run(cid, "", check)
    given = {"abc": config.abc, "alpha": config.alpha}
    for suite, checks, label, kind, reject, build, ceiling in FAMILIES:
        if suite not in suites:
            continue
        degree = config.cutoff(ceiling) if ceiling else None
        for p in given.get(label) or sampled(kind):
            params = f"{label}={p}"
            reason = reject(p) if reject else None
            if reason is not None:
                for cid, _ in checks:
                    col.skip(cid, params, reason)
                continue
            engine = cache(partial(build, p)) if build else None
            for cid, check in checks:
                col.run(cid, params, partial(check, p, engine, degree))

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


def _rationals(make, count: int):
    """An argparse type: ``count`` comma-separated rationals handed to ``make``."""
    def parse(text: str):
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated rationals")
        try:
            return make(*(Fraction(t) for t in parts))
        except (ValueError, ZeroDivisionError, ParameterError) as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skverify",
                                     description="Exact verification suites for the three graded algebra families.")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES + ("all",))
    v.add_argument("--abc", action="append", type=_rationals(AbcParams.of, 3), default=[],
                   metavar="a,b,c", help="explicit projective parameter triple; repeatable")
    v.add_argument("--alpha", action="append", type=_rationals(AlphaTriple.complete, 2), default=[],
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
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            # mkstemp makes the file private; give the report the mode open() would
            mask = os.umask(0)
            os.umask(mask)
            os.chmod(fd, 0o666 & ~mask)
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

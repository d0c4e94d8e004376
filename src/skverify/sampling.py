"""Deterministic parameter sampling with per-family rejection filters.

The generator is a fixed, documented 64-bit algorithm rather than the
stdlib Mersenne twister so that a report's sample list can be reproduced
from (kind, seed) alone by any implementation.  Each sampling kind draws
from its own stream, so adding a suite to a run never shifts the samples
of another.  ``reject_reason(kind, p)`` alone says which predicate judges
which kind of point: the sampler judges each drawn candidate through it once
and the report driver each explicit point, so no sample is judged twice.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError, SamplingExhaustedError
from .families import (AbcParams, AlphaTriple, alpha_from_abc, s2_central_quartic,
                       is_smooth_hesse)
from .field import fe, root_of_unity
from .pointscheme import order_of, point

log = logging.getLogger(__name__)

MASK64 = (1 << 64) - 1
MAX_DRAWS = 1000

# stream salts per sampling kind; arbitrary fixed values, never change them
_SALTS = {"s3": 0x73330000, "s2": 0x73320000, "s4": 0x73340000, "sqrt": 0x73717274}


class SplitMix64:
    """SplitMix64: state += golden gamma; output is the mixed state."""

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        # top of the range is rejected so the result is exactly uniform
        limit = ((1 << 64) // n) * n
        while True:
            v = self.next64()
            if v < limit:
                return v % n


def nonzero_rational(rng: SplitMix64) -> Fraction:
    """Numerator in [-9, 9] without 0, denominator in [1, 9]."""
    num = rng.below(18) - 9
    if num >= 0:
        num += 1
    den = rng.below(9) + 1
    return Fraction(num, den)


class RejectionEvent(NamedTuple):
    kind: str
    candidate: str
    reason: str


def s3_reject_reason(p: AbcParams) -> str | None:
    if not is_smooth_hesse(p):
        return "curve is singular"
    order = order_of(point(*p))
    if order == 1:
        return "translation point is the origin"
    if order == 3:
        return "translation point is an inflection"
    return None


def s2_reject_reason(p: AbcParams) -> str | None:
    if not is_smooth_hesse(p):
        return "curve is singular"
    if p.b == p.c or p.b == -p.c:
        return "b equals +-c"
    if alpha_from_abc(p).is_degenerate():
        return "alpha triple is degenerate"
    if not s2_central_quartic(p):
        return "closed-form quartic vanishes"
    return None


def alpha_reject_reason(t: AlphaTriple) -> str | None:
    if t.is_degenerate():
        return "alpha triple is degenerate"
    return None


def reject_reason(kind: str, p) -> str | None:
    """Why ``p`` is degenerate as a point of sampling kind ``kind``, or None."""
    # looked up when called, so a patched or traced predicate is what runs
    judge = {"s3": s3_reject_reason, "s2": s2_reject_reason, "s4": alpha_reject_reason}
    return judge[kind](p) if kind in judge else None


def _draw_s4(rng: SplitMix64):
    a1 = fe(nonzero_rational(rng))
    a2 = fe(nonzero_rational(rng))
    if not 1 + a1 * a2:
        return (a1, a2), "alpha1*alpha2 = -1 leaves alpha3 undefined"
    return AlphaTriple.complete(a1, a2), None


# square-root-locus triples with in-field entries, one family per residue
def _draw_sqrt(rng: SplitMix64, index: int):
    q = fe(nonzero_rational(rng))
    if q == fe(1) or q == fe(-1):
        return (q,), "scale parameter is +-1"
    i = root_of_unity(4)
    return ((fe(1), q, fe(1)), (fe(1), q, fe(-1)), (q, i, -i))[index % 3], None


def sample_parameters(kind: str, count: int, seed: int):
    """Accepted parameter sets only; see sample_with_log for the rejections."""
    return sample_with_log(kind, count, seed)[0]


def sample_with_log(kind: str, count: int, seed: int):
    if count < 1:
        raise ParameterError("sample count must be >= 1")
    if kind not in _SALTS:
        raise ParameterError(f"unknown sampling kind {kind!r}")
    rng = SplitMix64(seed ^ _SALTS[kind])
    out: list = []
    events: list[RejectionEvent] = []
    draws = 0
    while len(out) < count:
        if draws >= MAX_DRAWS:
            raise SamplingExhaustedError(
                f"{kind}: {draws} draws yielded {len(out)} of {count} samples")
        draws += 1
        if kind in ("s3", "s2"):
            cand, reason = AbcParams.of(1, nonzero_rational(rng), nonzero_rational(rng)), None
        elif kind == "s4":
            cand, reason = _draw_s4(rng)
        else:
            cand, reason = _draw_sqrt(rng, len(out))
        # the draw rejects what is no parameter set; the kind's predicate the rest
        reason = reason or reject_reason(kind, cand)
        if reason is None:
            out.append(cand)
        else:
            ev = RejectionEvent(kind, str(cand), reason)
            events.append(ev)
            log.debug("rejected %s sample %s: %s", kind, ev.candidate, ev.reason)
    return out, events

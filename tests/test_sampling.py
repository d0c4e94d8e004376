"""Deterministic parameter sampling with explicit rejection logging."""

from fractions import Fraction

import pytest

from skverify.errors import SamplingExhaustedError
from skverify.families import AbcParams, SextupleParams
from skverify import sampling
from skverify.sampling import (SplitMix64, alpha_reject_reason,
                               nonzero_rational, s2_reject_reason,
                               s3_reject_reason, sample_parameters,
                               sample_with_log)


def test_generator_reference_vectors():
    # first outputs for seed 0 from the published reference implementation
    r = SplitMix64(0)
    assert r.next64() == 0xE220A8397B1DCDAF
    assert r.next64() == 0x6E789E6AA1B965F4
    assert r.next64() == 0x06C45D188009454F


def test_generator_is_deterministic_per_seed():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next64() for _ in range(20)] == [b.next64() for _ in range(20)]
    c = SplitMix64(12346)
    assert a.next64() != c.next64()


def test_nonzero_rational_bounds():
    rng = SplitMix64(99)
    for _ in range(300):
        q = nonzero_rational(rng)
        assert q != 0
        assert -9 <= q.numerator <= 9 or abs(q) <= 9
        assert isinstance(q, Fraction)


def test_sampling_is_reproducible():
    for kind in ("s3", "s2", "s4", "sqrt"):
        first = sample_parameters(kind, 3, 7)
        second = sample_parameters(kind, 3, 7)
        assert first == second
        shifted = sample_parameters(kind, 3, 8)
        assert first != shifted


def test_kind_streams_are_independent():
    s3 = sample_parameters("s3", 2, 7)
    s2 = sample_parameters("s2", 2, 7)
    assert s3 != s2


def test_accepted_samples_satisfy_their_own_filters():
    # the acceptance filters re-run on the output must find nothing to reject
    abc, _ = sample_with_log("s3", 4, 11)
    assert all(s3_reject_reason(p) is None for p in abc)
    abc2, _ = sample_with_log("s2", 4, 11)
    assert all(s2_reject_reason(p) is None for p in abc2)
    alphas, _ = sample_with_log("s4", 4, 11)
    assert all(alpha_reject_reason(t) is None for t in alphas)
    lams, _ = sample_with_log("sqrt", 4, 11)
    for lam in lams:
        SextupleParams.from_sqrt(*lam)  # constructor revalidates the locus


def test_s3_filter_checks_smoothness_before_the_order():
    # order_of means nothing on a singular member: at [0:1:1] it reads 6
    assert s3_reject_reason(AbcParams.of(1, 1, 1)) == "curve is singular"
    assert s3_reject_reason(AbcParams.of(0, 1, 1)) == "curve is singular"


def test_s2_alpha_poles_are_caught_by_the_earlier_guards():
    # alpha_from_abc raises only at a = 0 or b = +-c; a = 0 makes the curve
    # singular and b = +-c has its own guard, so neither reaches it
    assert s2_reject_reason(AbcParams.of(0, 1, 2)) == "curve is singular"
    assert s2_reject_reason(AbcParams.of(1, 2, 2)) == "b equals +-c"
    assert s2_reject_reason(AbcParams.of(1, -2, 2)) == "b equals +-c"


def test_rejection_log_structure():
    # scan seeds until the log is non-empty, then check the record shape
    for seed in range(40):
        _, events = sample_with_log("s3", 5, seed)
        if events:
            ev = events[0]
            assert ev.kind == "s3"
            assert ev.reason
            assert isinstance(ev.candidate, str)
            return
    pytest.fail("no rejection observed in 40 seeds")


def test_rejected_candidates_fail_their_filter():
    seen = 0
    for seed in range(60):
        _, events = sample_with_log("s3", 5, seed)
        for ev in events:
            a, b, c = (Fraction(t) for t in ev.candidate.strip("[]").split(":"))
            assert s3_reject_reason(AbcParams.of(a, b, c)) == ev.reason
            seen += 1
    assert seen >= 1


def test_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(sampling, "s3_reject_reason", lambda p: "forced")
    with pytest.raises(SamplingExhaustedError):
        sample_with_log("s3", 1, 0)


def test_unknown_kind_rejected():
    with pytest.raises(Exception):
        sample_parameters("s5", 1, 0)


def test_seed7_reference_samples():
    # pinned so that report determinism failures point at sampling first
    abc = sample_parameters("s3", 3, 7)
    assert abc[0] == AbcParams.of(1, Fraction(-1, 3), -2)
    assert abc[1] == AbcParams.of(1, -1, Fraction(5, 7))
    assert abc[2] == AbcParams.of(1, Fraction(-5, 4), -8)

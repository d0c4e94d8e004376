"""Acceptance gate: the ten headline checks, one printed verdict line each.

Each test prints exactly one "criterion NN <name>: PASS/FAIL" line and then
asserts, so a red criterion is visible in the log even when the assertion
message scrolls away.  All comparisons are exact; nothing is approximate.
"""

from skverify.cli import main
from skverify.families import SextupleParams, build_s2, build_s3, build_s4
from skverify.graded import Quotient
from skverify.heisenberg import (TensorPowerRep, antisymmetric_character, decompose,
                                 h3_gen_rep, h4_gen_rep, invariant_subspace,
                                 irrep_table, twist_equivalence_table)
from skverify.pointscheme import (ORIGIN, group_law_record, hesse_add, hesse_third,
                                  invariant_cubic_basis, point, point_module_step,
                                  s2_point_determinant, s3_degree3_overlap,
                                  s4_minor_membership, verify_c3_description)
from skverify.sampling import sample_parameters
from skverify.veronese import (build_veronese, extract_c4,
                               verify_c4_central, verify_central_pair,
                               verify_quotient_map)

SEED = 7
ABC3 = sample_parameters("s3", 3, SEED)
ABC2 = sample_parameters("s2", 3, SEED)
ALPHAS = sample_parameters("s4", 3, SEED)
LAMBDAS = sample_parameters("sqrt", 3, SEED)


def verdict(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} {name}"


def test_criterion_01_hilbert_functions():
    ok = True
    for p in ABC3:
        ok &= Quotient(build_s3(p)).hilbert_dims(6) == tuple(
            (m + 1) * (m + 2) // 2 for m in range(7))
    for p in ABC2:
        ok &= Quotient(build_s2(p)).hilbert_dims(6) == tuple(
            (m + 2) ** 2 // 4 for m in range(7))
    for t in ALPHAS:
        pres = build_s4(SextupleParams.from_alpha(t))
        ok &= Quotient(pres).hilbert_dims(5) == tuple(
            (m + 1) * (m + 2) * (m + 3) // 6 for m in range(6))
    verdict(1, "hilbert functions of all three families", ok)


def test_criterion_02_degree3_relation_overlap():
    ok = True
    for p in ABC3:
        rec = s3_degree3_overlap(p)
        ok &= rec["sum_dim"] == 17
        ok &= rec["meet_dim"] == 1
        ok &= rec["meet_is_relation_combo"]
    verdict(2, "degree-3 overlap of shifted relation spaces", ok)


def test_criterion_03_representation_suite():
    ok = True
    for n, count, sumsq in ((2, 5, 8), (3, 11, 27), (4, 22, 64)):
        table = irrep_table(n)
        ok &= len(table) == count
        ok &= sum(r.dim ** 2 for r in table) == sumsq
    ok &= decompose(TensorPowerRep(h3_gen_rep(), 2).character()) == {"H3:V2": 3}
    ok &= decompose(TensorPowerRep(h4_gen_rep(), 2).character()) == {
        "H4:V_{0,0}": 2, "H4:V_{0,1}": 2, "H4:V_{1,0}": 2, "H4:V_{1,1}": 2}
    wedge = decompose(antisymmetric_character(h4_gen_rep()))
    ok &= wedge == {"H4:V_{0,1}": 1, "H4:V_{1,0}": 1, "H4:V_{1,1}": 1}
    table = twist_equivalence_table()
    ok &= len(table) == 256 and sum(1 for v in table.values() if v) == 64
    inv = invariant_subspace(TensorPowerRep(h3_gen_rep(), 3))
    basis = invariant_cubic_basis()
    ok &= inv.dim == 3
    ok &= all(inv.contains(b.row) for b in basis)
    for p in ABC3:
        ok &= s3_degree3_overlap(p)["invariant_dim"] == 1
    verdict(3, "heisenberg representation decompositions", ok)


def test_criterion_04_central_cubic():
    ok = True
    for p in ABC3:
        rec = verify_c3_description(p, Quotient(build_s3(p)))
        ok &= rec["centralizer_dim"] == 1
        ok &= rec["ratio"] is not None
        ok &= rec["pass"]
        tau = point(*p)
        ok &= point(*rec["coefficient_triple"]) == hesse_third(p, tau, tau)
    verdict(4, "degree-3 center described by the tangent construction", ok)


def test_criterion_05_central_quartic():
    ok = True
    for p in ABC2:
        rec = verify_c4_central(p, Quotient(build_s2(p)))
        ok &= rec["quartic_nonzero_mod_ideal"]
        ok &= rec["central"]
        ok &= rec["quartic_invariant"]
        ok &= rec["centralizer_dim"] >= 1
    verdict(5, "invariant central quartic in the 2-generator family", ok)


def test_criterion_06_central_pair_and_quotient_series():
    ok = True
    for t in ALPHAS:
        pres = build_s4(SextupleParams.from_alpha(t))
        ok &= Quotient(pres).centralizer_slice(2).dim == 2
    for p in ABC2:
        rec = verify_central_pair(build_veronese(p))
        ok &= rec["omega1_central"] and rec["omega2_central"]
        ok &= rec["independent_mod_relations"]
        ok &= rec["pass"]
        vm = build_veronese(p)
        pres = build_s4(vm.sextuple)
        dims = Quotient(pres.adjoin([vm.extra, vm.omega2])).hilbert_dims(5)
        ok &= dims == (1, 4, 8, 12, 16, 20)
    verdict(6, "two central quadrics and the quotient growth", ok)


def test_criterion_07_quotient_map():
    ok = True
    for p in ABC2:
        vm = build_veronese(p)
        rec = verify_quotient_map(vm)
        ok &= rec["pass"]
        ok &= len(vm.kernel_rows) == 7
        ok &= rec["relations_in_ideal"] == (True,) * 7
        ok &= rec["sextuple_matches_closed_form"]
        ok &= rec["alpha_matches_closed_form"]
        ok &= rec["elements_are_eigenvectors"]
        ok &= rec["image_equivariance"]
        img = extract_c4(build_veronese(p))
        ok &= img["omega1_maps_to_zero"]
        ok &= img["mu"] is not None
        ok &= img["pass"]
    verdict(7, "equivariant quotient map onto the squared generators", ok)


def test_criterion_08_point_matrices():
    ok = True
    for p in ABC3:
        tau = point(*p)
        q = Quotient(build_s3(p))
        ok &= point_module_step(q, ORIGIN) == tau
        two = hesse_add(p, tau, tau)
        ok &= point_module_step(q, tau) == two
        ok &= point_module_step(q, two) == hesse_add(p, two, tau)
    for p in ABC2:
        rec = s2_point_determinant(p)
        ok &= rec["matrix_matches_reference"]
        ok &= rec["ratio_to_reference"] is not None
        ok &= rec["pass"]
    for lam in LAMBDAS:
        rec = s4_minor_membership(*lam)
        ok &= rec["pass"]
        ok &= rec["all_members"]
        ok &= rec["perturbed_failures"] >= 1
    verdict(8, "point matrices, determinants, and minor membership", ok)


def test_criterion_09_group_law():
    ok = True
    for p in ABC3:
        rec = group_law_record(p)
        ok &= rec["count"] >= 10
        ok &= rec["pass"]
    verdict(9, "cubic group law on ten translation multiples", ok)


def test_criterion_10_deterministic_reports(tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    code1 = main(["verify", "all", "--samples", "3", "--seed", "7",
                  "--out", str(first)])
    code2 = main(["verify", "all", "--samples", "3", "--seed", "7",
                  "--out", str(second)])
    strip = lambda t: "\n".join(
        l for l in t.splitlines() if not l.startswith("timing"))
    ok = code1 == 0 and code2 == 0
    ok &= strip(first.read_text()) == strip(second.read_text())
    verdict(10, "byte-identical reruns outside the timing section", ok)

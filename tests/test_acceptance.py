"""Acceptance battery: one test per criterion, at the stated tolerances.

The terminal summary (see conftest) prints one PASS/FAIL line per criterion.
"""

import json
import time

import numpy as np
import pytest

from taumackey import (
    characters,
    cli,
    conjugacy,
    criteria,
    gelfand,
    groups,
    morphisms,
)

from battery import CENSUS_BATTERY, available_taus, battery_names, get_group, symmetry_conditions
from oracles import (clifford_theory_check, induced_character, mul_table, subgroup_table,
                     twisted_orbit_count)


# -- 1: known simply reducible groups, three-way agreement, under a second ----

@pytest.mark.parametrize("family,n", [("symmetric", 3), ("symmetric", 4), ("quaternion8", None)])
def test_criterion_01_known_simply_reducible(family, n):
    start = time.perf_counter()
    g = groups.construct_family(family, n)
    tau = morphisms.tau_inverse(g)
    table = characters.compute_character_table(g)
    v = criteria.simply_reducible_verdict(table, tau)
    elapsed = time.perf_counter() - start
    assert v.agree
    assert v.definition and v.mackey_cosets and v.mackey_wigner
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


# -- 2: the icosahedral-style negative ----------------------------------------

def test_criterion_02_real_characters_but_not_simply_reducible():
    start = time.perf_counter()
    g = groups.direct_product(groups.alternating(5), groups.cyclic(2))
    tau = morphisms.tau_inverse(g)
    table = characters.compute_character_table(g)
    assert (characters.fs_indicators(table) == 1).all()
    v = criteria.simply_reducible_verdict(table, tau)
    assert v.agree and not v.definition
    assert "tensor" in v.witnesses and v.witnesses["tensor"]["multiplicity"] >= 2
    assert v.sums[0] < v.sums[1]
    assert time.perf_counter() - start < 30.0


# -- 3: signed-subset battery with the paired power sums ----------------------

def test_criterion_03_clifford_battery():
    start = time.perf_counter()
    expected_sums = {1: 64, 2: 224, 3: 1792, 4: 9728, 5: 77824}
    for n in range(1, 6):
        g = groups.clifford(n)
        tau = morphisms.tau_clifford(g)
        v = criteria.simply_reducible_verdict(characters.compute_character_table(g), tau)
        assert v.agree and v.definition
        assert v.sums[0] == v.sums[1] == expected_sums[n]
        # the naive closed form undercounts the central contributions; the
        # acceptance quantity is the equality of the two computed sides
        assert isinstance(v.sums[0], int) and isinstance(v.sums[1], int)
        if n == 2:
            assert v.sums[0] == 224 and v.sums[0] != 2 ** (3 * n + 1)
    assert time.perf_counter() - start < 10.0


# -- 4: classical census across the named battery -----------------------------

CENSUS_EXPECTED = {
    "Z6": 2, "S3": 3, "S4": 5, "S5": 7, "A4": 2,
    "D4": 5, "D5": 4, "Q8": 5, "CL3": 8,
}


@pytest.mark.parametrize("name", CENSUS_BATTERY)
def test_criterion_04_square_root_census(name):
    g = get_group(name)
    tau = morphisms.tau_inverse(g)
    table = characters.compute_character_table(g)
    counts = conjugacy.count_twisted_squares(g, tau)
    total = sum(int(c) ** 2 for c in counts)
    assert total % g.order == 0
    averaged = total // g.order
    real_rows = int((np.abs(table.values.imag).max(axis=1) < 1e-8).sum())
    assert averaged == real_rows == CENSUS_EXPECTED[name]


# -- 5: twisted indicators and the count expansion over the full matrix -------

@pytest.mark.parametrize("name", battery_names())
def test_criterion_05_twisted_indicators_and_expansion(name):
    g = get_group(name)
    table = characters.compute_character_table(g)
    for _, tau in available_taus(g):
        tw = characters.twisted_fs_indicators(table, tau)
        assert set(int(x) for x in tw.values) <= {-1, 0, 1}
        assert tw.max_residual < 1e-6
        assert tw.expansion_residual < 1e-6


# -- 6: the three equal census quantities -------------------------------------

@pytest.mark.parametrize("name", battery_names())
def test_criterion_06_census_three_ways(name):
    g = get_group(name)
    table = characters.compute_character_table(g)
    for _, tau in available_taus(g):
        census = characters.self_conjugate_census(table, tau)
        assert census.count == census.invariant_class_route
        assert census.count == census.squared_count_route


# -- 7: the Gelfand-pair suite -------------------------------------------------

def _space(big, gens):
    g = get_group(big)
    ids = groups.subgroup_closure(g, [g.element_id(s) for s in gens])
    return gelfand.build_coset_space(g, ids)


def test_criterion_07_gelfand_suite():
    for big, gens in [("S4", ["(1 2)", "(1 2 3)"]), ("S5", ["(1 2)", "(1 2 3 4)"])]:
        sp = _space(big, gens)
        table = characters.compute_character_table(sp.group)
        rep = gelfand.gelfand_criteria_report(sp, morphisms.tau_inverse(sp.group), table)
        assert rep.gelfand and all(symmetry_conditions(rep)) and rep.weak_symmetry
    for n in (3, 4, 5):
        g = groups.cyclic(n)
        sp = gelfand.build_coset_space(g, [0])
        table = characters.compute_character_table(g)
        rep = gelfand.gelfand_criteria_report(sp, morphisms.tau_inverse(g), table)
        assert rep.gelfand and not any(symmetry_conditions(rep))
    # centralizers of fixed-point-free involutions; rank counts partitions
    for m, t_label, expected_rank in [(4, "(1 2)(3 4)", 2), (6, "(1 2)(3 4)(5 6)", 3)]:
        g = groups.symmetric(m)
        sigma = morphisms.validate(
            g, g.conj_map(g.element_id(t_label)), "automorphism"
        )
        star = gelfand.condition_star(g, sigma)
        assert star.holds and star.gelfand
        assert star.rank == expected_rank


# -- 8: twisted identities on explicit Gelfand pairs ---------------------------

@pytest.mark.parametrize("big,gens", [
    ("S4", ["(1 2)", "(1 2 3)"]),
    ("S3", ["(1 2)"]),
])
def test_criterion_08_twisted_identities_on_pairs(big, gens):
    sp = _space(big, gens)
    tau = morphisms.tau_inverse(sp.group)
    table = characters.compute_character_table(sp.group)
    criteria_report = gelfand.gelfand_criteria_report(sp, tau, table)
    rep = gelfand.twisted_fs_gelfand(sp, tau, table, criteria_report)
    assert rep.averaged_indicator_residual < 1e-6
    assert rep.degree_sum_lhs == rep.degree_sum_rhs
    assert rep.count_inversion_residual < 1e-6
    assert rep.tau_invariant_k_orbits is not None
    assert rep.tau_invariant_k_orbits == rep.self_conjugate_constituents


# -- 9: the abelian/identity characterization ----------------------------------

@pytest.mark.parametrize("name", battery_names())
def test_criterion_09_abelian_characterization(name):
    g = get_group(name)
    for _, tau in available_taus(g):
        # inversion on an elementary abelian 2-group IS the identity map
        expected = g.is_abelian() and np.array_equal(tau.images, np.arange(g.order))
        assert conjugacy.power_sum_report(g, tau, 3).equal == expected


def test_criterion_09_pinned_examples():
    z5 = get_group("Z5")
    assert conjugacy.power_sum_report(z5, morphisms.tau_identity(z5), 3).equal
    assert not conjugacy.power_sum_report(z5, morphisms.tau_inverse(z5), 3).equal
    s3 = get_group("S3")
    for _, tau in available_taus(s3):
        assert not conjugacy.power_sum_report(s3, tau, 3).equal


# -- 10: property suites --------------------------------------------------------

def test_criterion_10_twisted_burnside_fifty_actions():
    picks = ["S3", "Z6", "D4", "Q8", "A4", "S4", "CL2"]
    for seed in range(50):
        rng = np.random.default_rng(seed)
        g = get_group(picks[int(rng.integers(0, len(picks)))])
        n = g.order
        t = mul_table(g)
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        gi = {s: np.concatenate([t[s, :], t[s, :] + n]) for s in g.generators}
        alpha = np.concatenate([t[:, a] + n, t[:, b]])
        out = twisted_orbit_count(g, 2 * n, gi, alpha)
        assert out.averaged_count == out.fixed_orbit_count


@pytest.mark.parametrize("name", battery_names())
def test_criterion_10_table_quality(name):
    table = characters.compute_character_table(get_group(name))
    assert table.orthogonality_residual < 1e-8 * table.class_count
    assert int((table.degrees**2).sum()) == table.group.order


@pytest.mark.parametrize("name", battery_names())
def test_criterion_10_reciprocity_on_cyclic_subgroups(name):
    g = get_group(name)
    table = characters.compute_character_table(g)
    conj = conjugacy.conjugacy_classes(g)
    seen = set()
    for rep in conj.representatives:
        ids = groups.subgroup_closure(g, [int(rep)])
        key = ids.tobytes()
        if key in seen:
            continue
        seen.add(key)
        sub, emb = subgroup_table(g, ids)
        for f in characters.compute_character_table(sub).values:
            # induced_character asserts Frobenius reciprocity on every row
            induced_character(table, sub, emb, f)


def test_criterion_10_index_two_extension_classification():
    bases = {
        "Z3": get_group("Z3"),
        "Z4": get_group("Z4"),
        "Z2xZ2": groups.direct_product(groups.cyclic(2), groups.cyclic(2)),
        "S3": get_group("S3"),
    }
    for name, g in bases.items():
        report = clifford_theory_check(g, morphisms.tau_inverse(g))
        assert len(report.cases) == characters.compute_character_table(g).class_count


# -- 11: determinism of the full manifest ---------------------------------------

def test_criterion_11_manifest_determinism(tmp_path):
    start = time.perf_counter()
    manifest = json.loads((cli.Path(__file__).parent.parent / "manifests" /
                           "acceptance.json").read_text())
    out1, code1, _ = cli.run_batch(manifest, seed=1729, cache_dir=tmp_path / "c1")
    out2, code2, _ = cli.run_batch(manifest, seed=1729, cache_dir=tmp_path / "c2")
    assert code1 == code2 == 0
    assert cli.render_report(out1) == cli.render_report(out2)
    assert time.perf_counter() - start < 300.0

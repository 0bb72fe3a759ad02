import functools

import numpy as np
import pytest

from taumackey import characters, cli, gelfand, groups, morphisms
from taumackey._kernels import orbit_labels
from taumackey.errors import NotAutomorphism, NotGelfand

from battery import get_group


def space_in(big, gen_labels):
    g = get_group(big)
    ids = groups.subgroup_closure(g, [g.element_id(s) for s in gen_labels])
    return gelfand.build_coset_space(g, ids)


def test_coset_space_shapes():
    sp = space_in("S4", ["(1 2)", "(1 2 3)"])
    assert sp.size == 4
    assert len(sp.subgroup) * sp.size == 24
    assert sp.point_of[0] == 0
    # transitive action
    assert len(np.unique(gelfand.k_orbit_labels(
        gelfand.build_coset_space(sp.group, np.arange(24))))) == 1


def test_whole_group_single_point():
    s3 = get_group("S3")
    sp = gelfand.build_coset_space(s3, np.arange(6))
    assert sp.size == 1


def test_trivial_subgroup_regular_action():
    s3 = get_group("S3")
    sp = gelfand.build_coset_space(s3, [0])
    assert sp.size == 6
    assert np.array_equal(sp.action, s3.table.astype(np.int64))


def test_permutation_character_values():
    sp = space_in("S4", ["(1 2)", "(1 2 3)"])  # natural 4-point action
    perm = gelfand.permutation_character(sp)
    # fixed points by class: identity 4, transpositions 2, 3-cycles 1,
    # double transpositions 0, 4-cycles 0
    assert sorted(int(v.real) for v in perm.values) == [0, 0, 1, 2, 4]


def test_orbit_analysis_s3_two_symmetric():
    sp = space_in("S3", ["(1 2)"])
    a = gelfand.orbit_analysis(sp, morphisms.tau_inverse(sp.group))
    assert (a.m_symmetric, a.m_antisymmetric) == (2, 0)
    assert (a.hom_sym_dim, a.hom_skew_dim) == (2, 0)
    assert len(a.coset_reps) == a.orbit_count == 2


def test_orbit_analysis_regular_z3():
    z3 = get_group("Z3")
    sp = gelfand.build_coset_space(z3, [0])
    a = gelfand.orbit_analysis(sp, morphisms.tau_inverse(z3))
    assert a.m_antisymmetric >= 2
    assert a.m_antisymmetric % 2 == 0


def test_orbit_analysis_point_space():
    s3 = get_group("S3")
    sp = gelfand.build_coset_space(s3, np.arange(6))
    a = gelfand.orbit_analysis(sp, morphisms.tau_inverse(s3))
    assert (a.m_symmetric, a.m_antisymmetric) == (1, 0)
    assert (a.hom_sym_dim, a.hom_skew_dim) == (1, 0)


def test_dimension_bookkeeping_matches_coset_count():
    for big, gens in [("S4", ["(1 2)", "(1 2 3)"]), ("S4", ["(1 2 3 4)"]),
                      ("S5", ["(1 2)", "(1 2 3 4)"])]:
        sp = space_in(big, gens)
        a = gelfand.orbit_analysis(sp, morphisms.tau_inverse(sp.group))
        assert a.hom_sym_dim + a.hom_skew_dim == a.orbit_count
        assert len(a.coset_reps) == a.orbit_count


# ---------------------------------------------------------------------------
# weak symmetry and condition (c) against direct scans of K tau(g) K
# ---------------------------------------------------------------------------

def weak_symmetry_scan(space, tau):
    """Oracle: g in K tau(g) K for every g, scanning the |K| x |K| block."""
    t = space.group.table.astype(np.int64)
    K = space.subgroup
    for g in range(space.group.order):
        left = t[K, int(tau.images[g])]
        if not np.isin(g, t[np.ix_(left, K)]).any():
            return False
    return True


def double_coset_scan(space, tau, s):
    """Oracle: tau(s) in tau(K) s K, scanning the |K| x |K| block."""
    t = space.group.table.astype(np.int64)
    tau_k = np.unique(tau.images[space.subgroup])
    coset = t[np.ix_(t[tau_k, int(s)], space.subgroup)]
    return bool(np.isin(int(tau.images[s]), coset).any())


def involutory_twists(G):
    """Inversion and every distinct involutory inner twist."""
    t = G.table.astype(np.int64)
    center = set(np.flatnonzero((t == t.T).all(axis=1)).tolist())
    out = {}
    for g0 in range(G.order):
        if int(t[g0, g0]) in center:
            tau = morphisms.tau_inner(G, g0)
            out.setdefault(tau.images.tobytes(), tau)
    return list(out.values())


ORACLE_GROUPS = {
    "S4": lambda: get_group("S4"),
    "D4": lambda: get_group("D4"),
    "D6": lambda: groups.dihedral(6),
    "A4": lambda: get_group("A4"),
    "CL3": lambda: get_group("CL3"),
    "S5": lambda: get_group("S5"),
}


@functools.lru_cache(maxsize=None)
def symmetry_cases(name):
    """Check the orbit lookups against the direct scans on every subgroup
    generated by at most two elements (a seeded sample for S5) under every
    involutory twist.  Condition (c) is compared on every element of G, or
    on the double-coset representatives for S5.  Returns the weak-symmetry
    outcomes seen and the count of (K, tau, representative s) with
    tau(K) != K and tau(s) outside tau(K) s K."""
    G = ORACLE_GROUPS[name]()
    n = G.order
    if name == "S5":
        pairs = np.random.default_rng(5).integers(0, n, size=(12, 2))
    else:
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
    subgroups = {}
    for a, b in pairs:
        ids = groups.subgroup_closure(G, [a, b])
        subgroups.setdefault(ids.tobytes(), ids)
    weak_seen = set()
    moved_false = 0
    for K in subgroups.values():
        space = gelfand.build_coset_space(G, K)
        for tau in involutory_twists(G):
            weak = gelfand.weak_symmetry_holds(space, tau)
            assert weak == weak_symmetry_scan(space, tau)
            weak_seen.add(weak)
            reps = gelfand.orbit_analysis(space, tau).coset_reps
            elements = reps if name == "S5" else np.arange(n)
            fast = gelfand.double_coset_tau_invariant(space, tau, elements)
            slow = np.array([double_coset_scan(space, tau, s) for s in elements])
            assert np.array_equal(fast, slow)
            if not np.array_equal(np.unique(tau.images[K]), K):
                moved_false += int((~slow & np.isin(elements, reps)).sum())
    return frozenset(weak_seen), moved_false


@pytest.mark.parametrize("name", list(ORACLE_GROUPS))
def test_symmetry_checks_match_direct_scans(name):
    symmetry_cases(name)


def test_symmetry_oracle_cases_cover_both_outcomes():
    outcomes = [symmetry_cases(name) for name in ORACLE_GROUPS]
    assert set().union(*(weak for weak, _ in outcomes)) == {True, False}
    assert sum(moved for _, moved in outcomes) > 0


def test_symmetric_pair_s4_s3():
    sp = space_in("S4", ["(1 2)", "(1 2 3)"])
    rep = gelfand.gelfand_criteria_report(sp, morphisms.tau_inverse(sp.group))
    assert rep.gelfand and rep.hypothesis_holds and rep.weak_symmetry
    assert all(rep.conditions)
    assert rep.subgroup_tau_invariant
    assert rep.rank == 2


def test_weakly_symmetric_pair_s4_wr_z2():
    G = cli.build_group(
        {"generators": ["(1 2)", "(1 2 3 4)", "(1 5)(2 6)(3 7)(4 8)"], "degree": 8}
    )
    K = cli.build_subgroup(
        G, {"generators": ["(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7 8)"]}
    )
    sp = gelfand.build_coset_space(G, K)
    rep = gelfand.gelfand_criteria_report(sp, morphisms.tau_inverse(G), seed=1)
    assert (G.order, sp.size) == (1152, 2)
    assert rep.weak_symmetry and rep.rank == 2
    assert all(rep.conditions)


def test_symmetric_pair_s5_s4():
    sp = space_in("S5", ["(1 2)", "(1 2 3 4)"])
    rep = gelfand.gelfand_criteria_report(sp, morphisms.tau_inverse(sp.group))
    assert rep.gelfand and all(rep.conditions) and rep.weak_symmetry


@pytest.mark.parametrize("n", [3, 4, 5])
def test_abelian_regular_gelfand_but_not_symmetric(n):
    g = groups.cyclic(n)
    sp = gelfand.build_coset_space(g, [0])
    rep = gelfand.gelfand_criteria_report(sp, morphisms.tau_inverse(g))
    assert rep.gelfand
    assert rep.hypothesis_holds
    assert not any(rep.conditions)
    assert not rep.weak_symmetry


def test_diagonal_pair_is_gelfand():
    s3 = get_group("S3")
    gg = groups.direct_product(s3, s3)
    diag = np.array([g * 6 + g for g in range(6)], dtype=np.int64)
    sp = gelfand.build_coset_space(gg, diag)
    rep = gelfand.gelfand_criteria_report(sp, morphisms.tau_inverse(gg))
    assert rep.gelfand
    assert rep.rank == 3  # one orbit per conjugacy class


def test_spherical_functions_s4_s3():
    sp = space_in("S4", ["(1 2)", "(1 2 3)"])
    t = characters.compute_character_table(sp.group)
    sph = gelfand.spherical_functions(sp, t)
    assert 0 in sph.constituent_rows            # trivial constituent
    triv = list(sph.constituent_rows).index(0)
    assert np.abs(sph.values[triv] - 1).max() < 1e-9
    assert sph.normalization_residual < 1e-6
    assert sph.inversion_residual < 1e-6
    assert sph.orthogonality_residual < 1e-6


def test_spherical_rejects_non_gelfand():
    sp = space_in("S4", ["(1 2)"])  # rank 7 over 5 rows forces multiplicity
    t = characters.compute_character_table(sp.group)
    with pytest.raises(NotGelfand):
        gelfand.spherical_functions(sp, t)


def test_twisted_pair_s4_s3():
    sp = space_in("S4", ["(1 2)", "(1 2 3)"])
    rep = gelfand.twisted_fs_gelfand(sp, morphisms.tau_inverse(sp.group))
    assert all(v == 1 for v in rep.indicator_values)
    assert rep.averaged_indicator_residual < 1e-6
    assert rep.degree_sum_lhs == rep.degree_sum_rhs
    assert rep.k_orbit_count_match


def test_twisted_pair_point_space():
    s3 = get_group("S3")
    sp = gelfand.build_coset_space(s3, np.arange(6))
    rep = gelfand.twisted_fs_gelfand(sp, morphisms.tau_inverse(s3))
    assert rep.degree_sum_lhs == rep.degree_sum_rhs == 6


def test_twisted_pair_s3_transposition_subgroup():
    sp = space_in("S3", ["(1 2)"])
    rep = gelfand.twisted_fs_gelfand(sp, morphisms.tau_inverse(sp.group))
    assert rep.self_conjugate_constituents == 2
    assert rep.tau_invariant_k_orbits == 2
    assert rep.k_orbit_count_match


def test_twisted_pair_regular_z4():
    z4 = get_group("Z4")
    sp = gelfand.build_coset_space(z4, [0])
    rep = gelfand.twisted_fs_gelfand(sp, morphisms.tau_inverse(z4))
    assert rep.self_conjugate_constituents == 2
    assert rep.tau_invariant_k_orbits == 2
    assert rep.degree_sum_lhs == rep.degree_sum_rhs


def test_condition_star_s4():
    s4 = get_group("S4")
    sigma = morphisms.validate(
        s4, s4.conj_map(s4.element_id("(1 2)(3 4)")), "automorphism"
    )
    star = gelfand.condition_star(s4, sigma)
    assert star.holds
    assert star.fixed_subgroup_order == 8
    assert star.gelfand and star.rank == 2


def test_condition_star_flip_on_square():
    s3 = get_group("S3")
    gg = groups.direct_product(s3, s3)
    flip = morphisms.validate(
        gg, np.array([(a % 6) * 6 + a // 6 for a in range(36)]), "automorphism"
    )
    star = gelfand.condition_star(gg, flip)
    assert star.holds and star.fixed_subgroup_order == 6 and star.gelfand


def test_condition_star_identity_sigma():
    s4 = get_group("S4")
    ident = morphisms.validate(s4, np.arange(24), "automorphism")
    star = gelfand.condition_star(s4, ident)
    assert star.holds and star.omega_size == 1
    assert star.skipped == {} if ident.involutory else True


def test_condition_star_requires_automorphism():
    s4 = get_group("S4")
    with pytest.raises(NotAutomorphism):
        gelfand.condition_star(s4, morphisms.tau_inverse(s4))


def test_coset_space_data_is_computed_once_per_space(monkeypatch):
    sp = space_in("S4", ["(1 2)", "(1 2 3)"])
    tau = morphisms.tau_inverse(sp.group)
    table = characters.compute_character_table(sp.group)
    kernel_calls = []

    def counting_orbit_labels(moves):
        kernel_calls.append(moves.shape)
        return orbit_labels(moves)

    monkeypatch.setattr(gelfand, "orbit_labels", counting_orbit_labels)
    rep = gelfand.gelfand_criteria_report(sp, tau, table)
    assert rep.gelfand
    gelfand.spherical_functions(sp, table)
    gelfand.twisted_fs_gelfand(sp, tau, table)
    # the K-orbits, the pair orbits of X x X, the tau(K)-orbits: one call each
    assert kernel_calls == [(len(sp.subgroup), sp.size), (2, sp.size ** 2),
                            (len(sp.subgroup), sp.size)]
    labels = gelfand.k_orbit_labels(sp)
    perm = gelfand.permutation_character(sp)
    assert gelfand.k_orbit_labels(sp) is labels
    assert gelfand.permutation_character(sp) is perm
    assert not labels.flags.writeable and not perm.values.flags.writeable
    fresh = gelfand.build_coset_space(sp.group, sp.subgroup)
    assert np.array_equal(labels, orbit_labels(fresh.action[fresh.subgroup]))
    assert np.array_equal(perm.values, gelfand.permutation_character(fresh).values)


def test_gelfand_report_computes_spherical_functions_once(monkeypatch):
    calls = []
    spherical_functions = gelfand.spherical_functions

    def counting_spherical_functions(space, table):
        calls.append(space.size)
        return spherical_functions(space, table)

    monkeypatch.setattr(gelfand, "spherical_functions", counting_spherical_functions)
    job = {"command": "gelfand", "group": {"family": "symmetric", "n": 4},
           "subgroup": {"generators": ["(1 2)", "(1 2 3)"]}, "tau": "inverse"}
    report, code = cli.run_job(job, 1)
    assert code == 0 and report["payload"]["gelfand"]
    assert calls == [4]
    tw = gelfand.twisted_fs_gelfand(space_in("S4", ["(1 2)", "(1 2 3)"]),
                                    morphisms.tau_inverse(get_group("S4")))
    assert report["payload"]["spherical"]["constituent_rows"] == \
        tw.spherical.constituent_rows.tolist()

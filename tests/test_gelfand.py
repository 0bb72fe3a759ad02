import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from taumackey import characters, cli, conjugacy, gelfand, groups, morphisms
from taumackey._kernels import orbit_labels
from taumackey.conjugacy import conjugacy_classes
from taumackey.errors import BudgetExceeded, MathCheckError, SpecError

from battery import BATTERY_BUILDERS, battery_names, get_group, symmetry_conditions
from oracles import induced_character, mul_table, retraced, subgroup_closure, subgroup_table


def coset_oracle(G, K):
    """The cosets by a loop over G, each new element covering its coset
    gK, and the full |G| x |X| action table: (reps, point_of, action)."""
    n = G.order
    point_of = -np.ones(n, dtype=np.int64)
    reps = []
    for g in range(n):
        if point_of[g] >= 0:
            continue
        point_of[G.mul(g, K)] = len(reps)
        reps.append(g)
    reps = np.array(reps, dtype=np.int64)
    action = point_of[G.mul(np.arange(n)[:, None], reps)]
    return reps, point_of, action


def oracle_fixed_points(G, action):
    """The permutation character: fixed points of each class representative,
    read from the action table."""
    points = np.arange(action.shape[1])
    return np.array([(action[int(r)] == points).sum()
                     for r in conjugacy_classes(G).representatives], dtype=complex)


def space_in(big, gen_labels):
    g = get_group(big)
    ids = subgroup_closure(g, [g.element_id(s) for s in gen_labels])
    return gelfand.build_coset_space(g, ids)


def criteria_report(sp, tau, seed=None):
    table = characters.compute_character_table(sp.group, seed)
    return gelfand.gelfand_criteria_report(sp, tau, table)


def twisted_pair(sp, tau):
    """The twisted-pair report from the criteria report, as a gelfand job
    builds it."""
    table = characters.compute_character_table(sp.group)
    return gelfand.twisted_fs_gelfand(
        sp, tau, table, gelfand.gelfand_criteria_report(sp, tau, table))


def test_coset_space_shapes():
    sp = space_in("S4", ["(1 2)", "(1 2 3)"])
    assert sp.size == 4
    assert len(sp.subgroup) * sp.size == 24
    assert sp.point_of[0] == 0
    # transitive action
    assert len(np.unique(
        gelfand.build_coset_space(sp.group, np.arange(24)).k_orbit_labels)) == 1


def test_whole_group_single_point():
    s3 = get_group("S3")
    sp = gelfand.build_coset_space(s3, np.arange(6))
    assert sp.size == 1


def test_trivial_subgroup_regular_action():
    s3 = get_group("S3")
    sp = gelfand.build_coset_space(s3, [0])
    assert sp.size == 6
    assert np.array_equal(sp.rows(np.arange(6)), mul_table(s3))


def test_permutation_character_values():
    sp = space_in("S4", ["(1 2)", "(1 2 3)"])  # natural 4-point action
    perm = sp.permutation_character
    # fixed points by class: identity 4, transpositions 2, 3-cycles 1,
    # double transpositions 0, 4-cycles 0
    assert sorted(int(v.real) for v in perm) == [0, 0, 1, 2, 4]


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
    t = mul_table(space.group)
    K = space.subgroup
    for g in range(space.group.order):
        left = t[K, int(tau.images[g])]
        if not np.isin(g, t[np.ix_(left, K)]).any():
            return False
    return True


def double_coset_scan(space, tau, s):
    """Oracle: tau(s) in tau(K) s K, scanning the |K| x |K| block."""
    t = mul_table(space.group)
    tau_k = np.unique(tau.images[space.subgroup])
    coset = t[np.ix_(t[tau_k, int(s)], space.subgroup)]
    return bool(np.isin(int(tau.images[s]), coset).any())


def involutory_twists(G):
    """Inversion and every distinct involutory inner twist."""
    t = mul_table(G)
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
        ids = subgroup_closure(G, [a, b])
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
    rep = criteria_report(sp, morphisms.tau_inverse(sp.group))
    assert rep.gelfand and rep.hypothesis_holds and rep.weak_symmetry
    assert all(symmetry_conditions(rep))
    assert rep.subgroup_tau_invariant
    assert rep.rank == 2


def test_gelfand_report_refuses_a_table_of_another_group():
    sp = space_in("S3", ["(1 2)"])
    table = characters.compute_character_table(get_group("S4"))
    with pytest.raises(SpecError, match="belong to different groups"):
        gelfand.gelfand_criteria_report(sp, morphisms.tau_inverse(sp.group), table)


def test_weakly_symmetric_pair_s4_wr_z2():
    G = cli.build_group(
        {"generators": ["(1 2)", "(1 2 3 4)", "(1 5)(2 6)(3 7)(4 8)"], "degree": 8}
    )
    K = cli.build_subgroup(
        G, {"generators": ["(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7 8)"]}
    )
    sp = gelfand.build_coset_space(G, K)
    rep = criteria_report(sp, morphisms.tau_inverse(G), seed=1)
    assert (G.order, sp.size) == (1152, 2)
    assert rep.weak_symmetry and rep.rank == 2
    assert all(symmetry_conditions(rep))


def test_symmetric_pair_s5_s4():
    sp = space_in("S5", ["(1 2)", "(1 2 3 4)"])
    rep = criteria_report(sp, morphisms.tau_inverse(sp.group))
    assert rep.gelfand and all(symmetry_conditions(rep)) and rep.weak_symmetry


@pytest.mark.parametrize("n", [3, 4, 5])
def test_abelian_regular_gelfand_but_not_symmetric(n):
    g = groups.cyclic(n)
    sp = gelfand.build_coset_space(g, [0])
    rep = criteria_report(sp, morphisms.tau_inverse(g))
    assert rep.gelfand
    assert rep.hypothesis_holds
    assert not any(symmetry_conditions(rep))
    assert not rep.weak_symmetry


def test_diagonal_pair_is_gelfand():
    s3 = get_group("S3")
    gg = groups.direct_product(s3, s3)
    diag = np.array([g * 6 + g for g in range(6)], dtype=np.int64)
    sp = gelfand.build_coset_space(gg, diag)
    rep = criteria_report(sp, morphisms.tau_inverse(gg))
    assert rep.gelfand
    assert rep.rank == 3  # one orbit per conjugacy class


def test_spherical_functions_s4_s3():
    sp = space_in("S4", ["(1 2)", "(1 2 3)"])
    t = characters.compute_character_table(sp.group)
    sph = gelfand.spherical_functions(sp, t, t.decompose(sp.permutation_character))
    assert 0 in sph.constituent_rows            # trivial constituent
    triv = list(sph.constituent_rows).index(0)
    assert np.abs(sph.values[triv] - 1).max() < 1e-9
    assert sph.normalization_residual < 1e-6
    assert sph.inversion_residual < 1e-6
    assert sph.orthogonality_residual < 1e-6


def test_spherical_rejects_non_gelfand():
    """phi(K) is the multiplicity of its constituent: a multiplicity 2 fails
    the normalization by 1."""
    sp = space_in("S4", ["(1 2)"])  # rank 7 over 5 rows forces multiplicity
    t = characters.compute_character_table(sp.group)
    assert t.decompose(sp.permutation_character).max() == 2
    with pytest.raises(MathCheckError, match="^spherical normalization residual 1$"):
        gelfand.spherical_functions(sp, t, t.decompose(sp.permutation_character))


def test_twisted_pair_s4_s3():
    sp = space_in("S4", ["(1 2)", "(1 2 3)"])
    rep = twisted_pair(sp, morphisms.tau_inverse(sp.group))
    assert all(v == 1 for v in rep.indicator_values)
    assert rep.averaged_indicator_residual < 1e-6
    assert rep.degree_sum_lhs == rep.degree_sum_rhs
    assert rep.tau_invariant_k_orbits == rep.self_conjugate_constituents


def test_twisted_pair_point_space():
    s3 = get_group("S3")
    sp = gelfand.build_coset_space(s3, np.arange(6))
    rep = twisted_pair(sp, morphisms.tau_inverse(s3))
    assert rep.degree_sum_lhs == rep.degree_sum_rhs == 6


def test_twisted_pair_s3_transposition_subgroup():
    sp = space_in("S3", ["(1 2)"])
    rep = twisted_pair(sp, morphisms.tau_inverse(sp.group))
    assert rep.self_conjugate_constituents == 2
    assert rep.tau_invariant_k_orbits == 2
    assert rep.tau_invariant_k_orbits == rep.self_conjugate_constituents


def test_twisted_pair_regular_z4():
    z4 = get_group("Z4")
    sp = gelfand.build_coset_space(z4, [0])
    rep = twisted_pair(sp, morphisms.tau_inverse(z4))
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
    assert star.gelfand is not None if ident.involutory else True


def test_condition_star_requires_automorphism():
    s4 = get_group("S4")
    with pytest.raises(SpecError, match="need a validated automorphism"):
        gelfand.condition_star(s4, morphisms.tau_inverse(s4))


def test_coset_space_data_is_computed_once_per_space(monkeypatch):
    G = get_group("S4")
    K = subgroup_closure(G, [G.element_id("(1 2)"), G.element_id("(1 2 3)")])
    tau = morphisms.tau_inverse(G)
    table = characters.compute_character_table(G)
    kernel_calls = []

    def counting_orbit_labels(moves):
        kernel_calls.append(moves.shape)
        return orbit_labels(moves)

    monkeypatch.setattr(gelfand, "orbit_labels", counting_orbit_labels)
    sp = gelfand.build_coset_space(G, K)
    labels = sp.k_orbit_labels
    perm = sp.permutation_character
    rep = gelfand.gelfand_criteria_report(sp, tau, table)
    assert rep.gelfand
    gelfand.spherical_functions(sp, table, rep.multiplicities)
    gelfand.twisted_fs_gelfand(sp, tau, table, rep)
    # the cosets, the K-orbits, the pair orbits of X x X, the tau(K)-orbits:
    # one call each, with K's generators as moves (G's on the pairs, one
    # permutation of X per coordinate)
    gens = len(sp.generators)
    assert kernel_calls == [(gens, G.order), (gens, sp.size), (2, 2, sp.size),
                            (gens, sp.size)]
    assert sp.k_orbit_labels is labels
    assert sp.permutation_character is perm
    assert not labels.flags.writeable and not perm.flags.writeable
    _, _, action = coset_oracle(G, K)
    assert np.array_equal(labels, orbit_labels(action[K]))
    assert np.array_equal(perm, oracle_fixed_points(G, action))


def test_gelfand_job_labels_the_cosets_once(monkeypatch):
    """One `gelfand` job makes the kernel calls of its coset space and
    nothing more: the cosets give |K| and |X| for the pair budget, so no
    other call labels them again.  G's classes are the one call of the
    conjugacy module."""
    calls = []
    for module in (groups, gelfand, conjugacy):
        def counted(moves, real=module.orbit_labels, where=module.__name__.split(".")[-1]):
            calls.append((where, moves.shape))
            return real(moves)
        monkeypatch.setattr(module, "orbit_labels", counted)
    job = {"command": "gelfand", "group": {"family": "symmetric", "n": 4}, "tau": "inverse",
           "subgroup": {"generators": ["(1 2)", "(1 2 3)"]}}
    report, code = cli.run_job(job, 1)
    payload = report["payload"]
    assert code == 0 and payload["subgroup_order"] == 6 and payload["points"] == 4
    # the cosets, the K-orbits, G's classes, the pair orbits of X x X and
    # the tau(K)-orbits, with K's two generators and G's two
    assert calls == [("gelfand", (2, 24)), ("gelfand", (2, 4)), ("conjugacy", (2, 24)),
                     ("gelfand", (2, 2, 4)), ("gelfand", (2, 4))]


def counting(monkeypatch, calls, name, *modules):
    """Count the calls of function ``name`` through each module's binding."""
    original = getattr(modules[0], name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)


def test_gelfand_report_computes_spherical_functions_once(monkeypatch):
    calls = []
    spherical_functions = gelfand.spherical_functions

    def counting_spherical_functions(space, table, mults):
        calls.append(space.size)
        return spherical_functions(space, table, mults)

    monkeypatch.setattr(gelfand, "spherical_functions", counting_spherical_functions)
    counted = {}
    counting(monkeypatch, counted, "twisted_fs_indicators", gelfand, characters)
    counting(monkeypatch, counted, "count_twisted_squares", characters, conjugacy)
    decompose = characters.CharacterTable.decompose

    def counting_decompose(self, *args):
        counted["decompose"] = counted.get("decompose", 0) + 1
        return decompose(self, *args)

    monkeypatch.setattr(characters.CharacterTable, "decompose", counting_decompose)
    job = {"command": "gelfand", "group": {"family": "symmetric", "n": 4},
           "subgroup": {"generators": ["(1 2)", "(1 2 3)"]}, "tau": "inverse"}
    report, code = cli.run_job(job, 1)
    assert code == 0 and report["payload"]["gelfand"]
    assert calls == [4]
    # the twisted pair and the spherical functions read the indicators and
    # the multiplicities of the criteria report
    assert counted == {"twisted_fs_indicators": 1, "count_twisted_squares": 1,
                       "decompose": 1}
    tw = twisted_pair(space_in("S4", ["(1 2)", "(1 2 3)"]),
                      morphisms.tau_inverse(get_group("S4")))
    assert report["payload"]["spherical"]["constituent_rows"] == \
        tw.spherical.constituent_rows.tolist()


def test_fs_job_computes_the_indicators_once_and_the_counts_twice(monkeypatch):
    calls = {}
    counting(monkeypatch, calls, "twisted_fs_indicators", characters)
    counting(monkeypatch, calls, "count_twisted_squares", characters, conjugacy)
    job = {"command": "fs", "group": {"family": "dihedral", "n": 397}, "tau": "inverse"}
    report, code = cli.run_job(job, 1)
    assert code == 0
    p = report["payload"]
    assert p["twisted_indicators"] == [1] * 200
    assert p["count_expansion"]["holds"] and p["census"]["self_conjugate_rows"] == 200
    # the indicators and the census's power sums: one count each
    assert calls == {"twisted_fs_indicators": 1, "count_twisted_squares": 2}


# ---------------------------------------------------------------------------
# coset spaces against the loop over G and its |G| x |X| action table
# ---------------------------------------------------------------------------

def oracle_subgroups(G):
    """K trivial, K = G, <g> for each class representative g, and the fixed
    subgroup of every inner involution, each once."""
    ids = np.arange(G.order)
    cases = [np.zeros(1, dtype=np.int64), ids]
    cases += [subgroup_closure(G, [int(g)])
              for g in conjugacy_classes(G).representatives]
    for g in range(G.order):
        c = G.conj_map(g)
        if np.array_equal(c[c], ids):
            cases.append(np.flatnonzero(c == ids))
    return list({K.tobytes(): K for K in cases}.values())


# "walks" runs the group retraced: the same ids over another search tree
@pytest.mark.parametrize("retrace", [False, True], ids=["table", "walks"])
@pytest.mark.parametrize("name", battery_names())
def test_coset_space_matches_the_loop_over_g(name, retrace):
    G = retraced(get_group(name)) if retrace else get_group(name)
    for K in oracle_subgroups(G):
        space = gelfand.build_coset_space(G, K)
        reps, point_of, action = coset_oracle(G, K)
        assert np.array_equal(space.subgroup, K) and space.size == len(reps)
        assert np.array_equal(space.reps, reps)
        assert np.array_equal(space.point_of, point_of)
        assert np.array_equal(space.rows(np.arange(G.order)), action)
        assert np.array_equal(space.k_orbit_labels, orbit_labels(action[K]))
        assert np.array_equal(space.permutation_character, oracle_fixed_points(G, action))
        assert np.array_equal(subgroup_closure(G, space.generators), K)


# ---------------------------------------------------------------------------
# spherical functions and induction against the product sweeps
# ---------------------------------------------------------------------------

def spherical_oracle(space, table):
    """phi from the |X| x |K| products rep * k, and each constituent
    recovered by the conjugation sweep x^-1 * r * x over all x, per class and
    constituent: (constituents, phi, recovered characters)."""
    G, conj = space.group, table.conj
    constituents = np.flatnonzero(
        table.decompose(space.permutation_character, "permutation character"))
    prod_classes = conj.class_of[G.mul(space.reps[:, None], space.subgroup)]
    phi = np.array([table.values[i][prod_classes].conj().mean(axis=1)
                    for i in constituents])
    ids = np.arange(G.order)
    recovered = np.empty((len(constituents), conj.class_count), dtype=complex)
    for c, rep in enumerate(conj.representatives):
        points = space.point_of[G.mul(G.mul(G.inverse, rep), ids)]
        for a, i in enumerate(constituents):
            recovered[a, c] = table.degrees[i] / G.order * phi[a][points].conj().sum()
    return constituents, phi, recovered


def induced_oracle(table, sub, embedding, f):
    """Ind f at each class representative r: the average of f over the
    conjugates x^-1 * r * x of every x, by a loop over the classes."""
    G = table.group
    f_elem = np.zeros(G.order, dtype=complex)
    f_elem[embedding] = f[conjugacy_classes(sub).class_of]
    ids = np.arange(G.order)
    return np.array([f_elem[G.mul(G.mul(G.inverse, rep), ids)].sum() / len(embedding)
                     for rep in table.conj.representatives])


@pytest.mark.parametrize("retrace", [False, True], ids=["table", "walks"])
@pytest.mark.parametrize("name", battery_names())
def test_spherical_and_induction_match_the_product_sweeps(name, retrace):
    G = retraced(get_group(name)) if retrace else get_group(name)
    table = characters.compute_character_table(G)
    gelfand_pairs = 0
    for K in oracle_subgroups(G):
        space = gelfand.build_coset_space(G, K)
        sub, emb = subgroup_table(G, K)
        rows = characters.compute_character_table(sub)
        for f in rows.values:
            induced = induced_character(table, sub, emb, f)
            assert np.abs(induced - induced_oracle(table, sub, emb, f)).max() < 1e-9
        # the permutation character is the induced trivial character
        trivial = induced_character(table, sub, emb, np.ones(rows.class_count))
        assert np.abs(trivial - space.permutation_character).max() < 1e-9
        mults = table.decompose(space.permutation_character)
        if (mults > 1).any():
            with pytest.raises(MathCheckError, match="spherical normalization residual"):
                gelfand.spherical_functions(space, table, mults)
            continue
        gelfand_pairs += 1
        sph = gelfand.spherical_functions(space, table, mults)
        constituents, phi, recovered = spherical_oracle(space, table)
        assert np.array_equal(sph.constituent_rows, constituents)
        assert np.abs(sph.values - phi).max() < 1e-12
        oracle_residual = np.abs(recovered - table.values[constituents]).max()
        assert abs(sph.inversion_residual - oracle_residual) < 1e-12
    assert gelfand_pairs >= 2  # K = G and at least one more


@pytest.mark.parametrize("name", ["S4", "A5xZ2"])
def test_spherical_functions_and_induction_form_no_products(name, monkeypatch):
    """Both read the classes and cosets the space already labelled: where
    every product is a word walk, they call mul zero times."""
    G = BATTERY_BUILDERS[name]()
    table = characters.compute_character_table(G)
    pairs = []
    for K in oracle_subgroups(G):
        space = gelfand.build_coset_space(G, K)
        mults = table.decompose(space.permutation_character)
        if space.size > 1 and (mults <= 1).all():
            sub, emb = subgroup_table(G, K)
            trivial = np.ones(conjugacy_classes(sub).class_count)
            pairs.append((space, mults, sub, emb, trivial))
    assert pairs
    counted = []
    mul = groups.GroupTable.mul

    def counting_mul(self, a, b):
        counted.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
        return mul(self, a, b)

    monkeypatch.setattr(groups.GroupTable, "mul", counting_mul)
    for space, mults, sub, emb, trivial in pairs:
        gelfand.spherical_functions(space, table, mults)
        induced_character(table, sub, emb, trivial)
    assert counted == []


def test_corrupted_classes_fail_the_permutation_character_division():
    """A transposition of K = <(1 2)> in S3 moved into the 3-cycles' class:
    |C_G((1 2 3))| * 1 / |K| = 3/2 fixed points, which is refused."""
    G = groups.symmetric(3)
    K = subgroup_closure(G, [G.element_id("(1 2)")])
    conj = conjugacy_classes(G)
    class_of = conj.class_of.copy()
    class_of[G.element_id("(1 2)")] = class_of[G.element_id("(1 2 3)")]
    G._caches["conjugacy"] = dataclasses.replace(conj, class_of=class_of)
    with pytest.raises(MathCheckError, match="fixed-point counts are not integers"):
        gelfand.build_coset_space(G, K)


# ---------------------------------------------------------------------------
# memory: no |K|^2 products, no |G| x |X| table, no coset work past the cap
# ---------------------------------------------------------------------------

def peak_mb(run):
    """tracemalloc's peak, in MB, while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def s7():
    """S7 (order 5040, no table), built once for the guards below."""
    return groups.symmetric(7)


@pytest.fixture(scope="module")
def d2000():
    """D2000 (order 4000, 1003 classes) with sigma = identity, built once."""
    G = groups.dihedral(2000)
    return G, morphisms.validate(G, np.arange(G.order), "automorphism")


def test_check_subgroup_of_all_of_s7_stays_small(s7):
    member = np.ones((1, s7.order), dtype=bool)
    assert peak_mb(lambda: groups.spanning_generators(s7, member)) < 8


def test_coset_space_of_s3_in_s7_stays_small(s7):
    K = subgroup_closure(s7, [s7.element_id("(1 2)"), s7.element_id("(1 2 3)")])
    assert peak_mb(lambda: gelfand.build_coset_space(s7, K)) < 8


def test_condition_star_refuses_on_the_class_cap_before_coset_work(d2000, monkeypatch):
    G, sigma = d2000

    def no_coset_space(*args):
        raise AssertionError("build_coset_space ran before the class cap")

    monkeypatch.setattr(gelfand, "build_coset_space", no_coset_space)

    def run():
        with pytest.raises(BudgetExceeded, match="class count 1003 exceeds the cap 200"):
            gelfand.condition_star(G, sigma)

    assert peak_mb(run) < 16

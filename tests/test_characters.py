import dataclasses
import tracemalloc

import numpy as np
import pytest

from taumackey import characters, conjugacy, groups, morphisms
from taumackey.errors import (
    BudgetExceeded,
    CrossCheckFailed,
    NoMatchingRow,
    NotASubgroup,
)

from battery import BATTERY_BUILDERS, available_taus, battery_names, get_group
from oracles import (
    clifford_theory_check,
    find_row,
    induced_character,
    mul_table,
    restricted_character,
    retraced,
    subgroup_table,
)


def table(name):
    return characters.compute_character_table(get_group(name))


def test_z2_rows_in_canonical_order():
    t = characters.compute_character_table(groups.cyclic(2))
    assert np.allclose(t.values, [[1, 1], [1, -1]])


def test_s3_table():
    t = table("S3")
    assert t.degrees.tolist() == [1, 1, 2]
    assert np.allclose(t.values[0], [1, 1, 1])
    assert np.allclose(t.values[2], [2, 0, -1], atol=1e-9)


def test_q8_table_real_degrees():
    t = table("Q8")
    assert sorted(t.degrees.tolist()) == [1, 1, 1, 1, 2]
    assert np.abs(t.values.imag).max() < 1e-9


@pytest.mark.parametrize("name", battery_names())
def test_quality_gates(name):
    t = table(name)
    k = t.class_count
    assert t.orthogonality_residual < 1e-8 * k
    assert int((t.degrees**2).sum()) == t.group.order
    assert all(t.group.order % int(d) == 0 for d in t.degrees)


@pytest.mark.parametrize("name", ["S3", "Q8", "Z6", "CL3", "A5xZ2"])
def test_regular_character_decomposes_into_degrees(name):
    t = table(name)
    reg = np.zeros(t.class_count)
    reg[0] = t.group.order
    assert np.array_equal(t.decompose(reg), t.degrees)


def test_class_count_budget():
    with pytest.raises(BudgetExceeded):
        characters.compute_character_table(get_group("CL5"), class_cap=10)


def test_inner_product_orthonormality():
    t = table("S4")
    w = t.conj.class_sizes / t.group.order
    gram = (t.values * w) @ t.values.conj().T
    assert np.abs(gram - np.eye(t.class_count)).max() < 1e-10


def test_tensor_s3():
    t = table("S3")
    assert np.array_equal(characters.tensor_row(t, 0), np.eye(3, dtype=np.int64))
    assert characters.tensor_row(t, 2)[0].tolist() == [1, 1, 1]


@pytest.mark.parametrize("name", ["S3", "S4", "Q8", "D4", "CL3"])
def test_tensor_dimension_count(name):
    t = table(name)
    d = t.degrees
    for i in range(t.class_count):
        assert np.array_equal(characters.tensor_row(t, i) @ d, d[i] * d[i:])


def test_tensor_pairing_identity():
    # the multiplicity of the trivial row in a product equals the pairing of
    # one factor with the conjugate of the other
    t = table("S4")
    w = t.conj.class_sizes / t.group.order
    for i in range(t.class_count):
        pairing = (t.values[i] * w) @ t.values[i:].T   # <chi_i, conj(chi_j)>, j >= i
        assert np.abs(characters.tensor_row(t, i)[:, 0] - pairing).max() < 1e-10


def test_fs_indicators():
    assert characters.fs_indicators(table("S3")).tolist() == [1, 1, 1]
    tq = table("Q8")
    fs = characters.fs_indicators(tq)
    assert fs[int(np.flatnonzero(tq.degrees == 2)[0])] == -1
    tz = table("Z3")
    assert sorted(characters.fs_indicators(tz).tolist()) == [0, 0, 1]


def test_twisted_equals_classical_under_inversion():
    for name in ("S3", "S4", "Q8", "Z6", "CL3"):
        t = table(name)
        tau = morphisms.tau_inverse(t.group)
        tw = characters.twisted_fs_indicators(t, tau)
        assert np.array_equal(tw.values, characters.fs_indicators(t))
        assert tw.max_residual < 1e-6


def test_trivial_row_indicator_always_one():
    for name in battery_names():
        t = table(name)
        for _, tau in available_taus(t.group):
            tw = characters.twisted_fs_indicators(t, tau)
            assert tw.values[0] == 1


def test_twisted_inner_q8():
    t = table("Q8")
    tau = morphisms.tau_inner(t.group, t.group.element_id("i"))
    tw = characters.twisted_fs_indicators(t, tau)
    assert set(tw.values.tolist()) <= {-1, 0, 1}


def test_tau_row_permutation():
    t = table("Z3")
    tau = morphisms.tau_inverse(t.group)
    perm = characters.tau_row_permutation(t, tau)
    assert perm[0] == 0
    assert sorted(perm[1:]) == [1, 2] and perm[1] != 1
    ident = morphisms.tau_identity(t.group)
    assert np.array_equal(
        characters.tau_row_permutation(t, ident), np.arange(3)
    )


def test_tau_row_permutation_is_conjugation_for_inversion():
    t = table("CL3")
    tau = morphisms.tau_inverse(t.group)
    perm = characters.tau_row_permutation(t, tau)
    for i in range(t.class_count):
        assert np.abs(t.values[perm[i]] - t.values[i].conj()).max() < 1e-8


def test_census():
    t = table("Q8")
    census = characters.self_conjugate_census(t, morphisms.tau_inverse(t.group))
    assert census.count == 5
    tz = table("Z3")
    assert characters.self_conjugate_census(tz, morphisms.tau_inverse(tz.group)).count == 1
    ident = morphisms.tau_identity(tz.group)
    assert characters.self_conjugate_census(tz, ident).count == tz.class_count


def test_count_expansion_examples():
    t3 = table("S3")
    tau3 = morphisms.tau_inverse(t3.group)
    tw = characters.twisted_fs_indicators(t3, tau3)
    assert tw.expansion_residual < 1e-6
    # counts at the identity = signed degree sum: 4 = 1 + 1 + 2
    assert int(tw.values @ t3.degrees) == 4
    tq = table("Q8")
    twq = characters.twisted_fs_indicators(tq, morphisms.tau_inverse(tq.group))
    assert int(twq.values @ tq.degrees) == 2  # 1+1+1+1-2


def test_induced_character_a3_to_s3():
    s3 = get_group("S3")
    t = table("S3")
    ids = groups.subgroup_closure(s3, [s3.element_id("(1 2 3)")])
    sub, emb = subgroup_table(s3, ids)
    tk = characters.compute_character_table(sub)
    ind = induced_character(t, sub, emb, tk.values[1])
    assert find_row(t, ind) == 2  # the degree-2 row


def test_induced_trivial_is_permutation_character():
    s3 = get_group("S3")
    t = table("S3")
    ids = groups.subgroup_closure(s3, [s3.element_id("(1 2 3)")])
    sub, emb = subgroup_table(s3, ids)
    ind = induced_character(t, sub, emb, np.ones(3))
    assert t.decompose(ind).tolist() == [1, 1, 0]


def test_induction_from_whole_group_is_identity():
    s3 = get_group("S3")
    t = table("S3")
    sub, emb = subgroup_table(s3, np.arange(6))
    for i in range(t.class_count):
        f = t.values[i][conjugacy.conjugacy_classes(t.group).class_of[
            conjugacy.conjugacy_classes(sub).representatives]]
        ind = induced_character(t, sub, emb, f)
        assert find_row(t, ind) == i


def test_induction_refuses_an_embedding_that_splits_a_class():
    """Reciprocity restricts through the embedding: one that sends conjugate
    elements of K = S3 into different classes of S4 fails it."""
    s4 = get_group("S4")
    ids = groups.subgroup_closure(s4, [s4.element_id("(1 2)"), s4.element_id("(1 2 3)")])
    sub, emb = subgroup_table(s4, ids)
    a, b = (int(np.flatnonzero(emb == s4.element_id(c))[0]) for c in ("(1 2)", "(1 2 3)"))
    bent = emb.copy()
    bent[[a, b]] = emb[[b, a]]
    with pytest.raises(CrossCheckFailed, match="Frobenius reciprocity fails on row 1"):
        induced_character(table("S4"), sub, bent, np.ones(3))


def test_subgroup_required():
    s3 = get_group("S3")
    with pytest.raises(NotASubgroup):
        subgroup_table(s3, np.array([0, 1, 2]))


def test_induction_commutes_with_twist_on_invariant_subgroup():
    # Ind(sigma o tau) evaluated at g equals Ind(sigma) evaluated at tau(g)
    s4 = get_group("S4")
    t = table("S4")
    tau = morphisms.tau_inverse(s4)
    ids = groups.subgroup_closure(s4, [s4.element_id("(1 2 3 4)")])
    assert np.array_equal(np.sort(tau.images[ids]), ids)  # tau-invariant
    sub, emb = subgroup_table(s4, ids)
    tk = characters.compute_character_table(sub)
    tau_k = morphisms.validate(
        sub, np.array([int(np.flatnonzero(ids == tau.images[e])[0]) for e in ids]),
        "anti-automorphism",
    )
    for sigma in tk.values:
        lhs = induced_character(t, sub, emb, sigma[tk.conj.tau_class_image(tau_k)])
        rhs = induced_character(t, sub, emb, sigma)[t.conj.tau_class_image(tau)]
        assert np.abs(lhs - rhs).max() < 1e-8


def test_indicator_propagates_to_multiplicity_free_restrictions():
    # restrictions from S4 to S3 are multiplicity-free and everything is
    # self-conjugate, so constituents inherit the indicator of the big row
    s4, s3 = get_group("S4"), get_group("S3")
    t4 = table("S4")
    ids = groups.subgroup_closure(s4, [s4.element_id("(1 2)"), s4.element_id("(1 2 3)")])
    sub, emb = subgroup_table(s4, ids)
    tk = characters.compute_character_table(sub)
    fs_big = characters.fs_indicators(t4)
    fs_small = characters.fs_indicators(tk)
    for i in range(t4.class_count):
        res = restricted_character(s4, t4.values[i], sub, emb)
        mults = tk.decompose(res)
        assert (mults <= 1).all()
        for j in np.flatnonzero(mults):
            assert fs_small[j] == fs_big[i]


@pytest.mark.parametrize("base,tau_kind,expected_cases", [
    ("Z3", "identity", {2: 1, 1: 2}),   # two characters fuse, one splits
    ("Z3", "inverse", {2: 3}),
    ("Z4", "inverse", {2: 4}),
    ("S3", "inverse", {2: 3}),
])
def test_extension_case_classification(base, tau_kind, expected_cases):
    g = get_group(base)
    tau = morphisms.tau_identity(g) if tau_kind == "identity" else morphisms.tau_inverse(g)
    report = clifford_theory_check(g, tau)
    got = {}
    for c in report.cases:
        got[c.case] = got.get(c.case, 0) + 1
    assert got == expected_cases


def test_extension_trivial_base_splits():
    t = groups.cyclic(1)
    report = clifford_theory_check(t, morphisms.tau_inverse(t))
    assert len(report.cases) == 1 and report.cases[0].case == 2


def test_extension_klein_four():
    z2z2 = groups.direct_product(groups.cyclic(2), groups.cyclic(2))
    report = clifford_theory_check(z2z2, morphisms.tau_inverse(z2z2))
    assert all(c.case == 2 for c in report.cases)


def test_table_export_shape():
    t = table("S3")
    out = characters.table_to_jsonable(t)
    assert out["degrees"] == [1, 1, 2]
    assert len(out["rows"]) == 3 and len(out["rows"][0]) == 3
    assert out["class_sizes"] == [1, 3, 2]


def test_table_deterministic_for_fixed_seed():
    g1 = groups.symmetric(4)
    g2 = groups.symmetric(4)
    t1 = characters.compute_character_table(g1, seed=5)
    t2 = characters.compute_character_table(g2, seed=5)
    assert np.array_equal(t1.values, t2.values)


def _tuple_keys(values, degrees):
    """Each row's sort key: its degree, then its (-real, -imag) pairs to 6 places."""
    return [
        (int(d), tuple((-round(float(v.real), 6), -round(float(v.imag), 6)) for v in row))
        for row, d in zip(values, degrees)
    ]


@pytest.mark.parametrize("name", battery_names() + ["D300", "D397"])
def test_row_order_matches_tuple_key(name):
    """The table's rows are in the order of the per-row tuple key, and no two
    rows tie under it, so the order is the key's own."""
    g = get_group(name) if name in BATTERY_BUILDERS else groups.dihedral(int(name[1:]))
    for seed in (None, 5):
        t = characters.compute_character_table(g, seed)
        keys = _tuple_keys(t.values, t.degrees)
        assert keys == sorted(keys) and len(set(keys)) == t.class_count


def _trace_indicator(table, tau, values):
    """Raw trace-formula indicator of an arbitrary class function."""
    g = table.group
    t = mul_table(g)
    ids = np.arange(g.order)
    targets = t[g.inverse[tau.images], ids]
    counts = np.bincount(table.conj.class_of[targets], minlength=table.class_count)
    return complex(values @ counts) / g.order


def test_indicator_additive_on_sums():
    t = table("S4")
    tau = morphisms.tau_inverse(t.group)
    tw = characters.twisted_fs_indicators(t, tau).values
    for i in range(t.class_count):
        for j in range(t.class_count):
            both = _trace_indicator(t, tau, t.values[i] + t.values[j])
            assert abs(both - (tw[i] + tw[j])) < 1e-8


def test_indicator_multiplicative_on_external_products():
    g1, g2 = get_group("S3"), get_group("Z4")
    p = groups.direct_product(g1, g2)
    t1 = characters.compute_character_table(g1)
    t2 = characters.compute_character_table(g2)
    tp = characters.compute_character_table(p)
    tau = morphisms.tau_inverse(p)
    c1 = characters.twisted_fs_indicators(t1, morphisms.tau_inverse(g1)).values
    c2 = characters.twisted_fs_indicators(t2, morphisms.tau_inverse(g2)).values
    cp = characters.twisted_fs_indicators(tp, tau).values
    conj_p = conjugacy.conjugacy_classes(p)
    conj_1, conj_2 = conjugacy.conjugacy_classes(g1), conjugacy.conjugacy_classes(g2)
    for i in range(t1.class_count):
        for j in range(t2.class_count):
            # the external product character evaluates factor-wise
            reps = conj_p.representatives
            a, b = np.divmod(reps, g2.order)
            vals = t1.values[i][conj_1.class_of[a]] * t2.values[j][conj_2.class_of[b]]
            row = find_row(tp, vals)
            assert cp[row] == c1[i] * c2[j]


def test_indicator_invariant_under_row_twist():
    for name in ("Z3", "Q8", "CL3", "A5xZ2"):
        t = table(name)
        for _, tau in available_taus(t.group):
            tw = characters.twisted_fs_indicators(t, tau).values
            perm = characters.tau_row_permutation(t, tau)
            assert np.array_equal(tw[perm], tw)


# ---------------------------------------------------------------------------
# class algebra: k*|G| products against the per-pair double loop
# ---------------------------------------------------------------------------

NOT_CONSTANT = "class products are not constant on classes"


def _members(conj):
    """Sorted element ids per class."""
    return [np.flatnonzero(conj.class_of == c) for c in range(conj.class_count)]


def _class_matrices_oracle(G, conj):
    """One bincount per class pair (i, j), each asserted divisible."""
    ids = np.arange(G.order)
    k = conj.class_count
    A = np.empty((k, k, k), dtype=np.int64)
    sizes = conj.class_sizes
    classes = _members(conj)
    for i in range(k):
        rows = G.mul(classes[i][:, None], ids)
        for j in range(k):
            prods = rows[:, classes[j]].reshape(-1)
            cnt = np.bincount(conj.class_of[prods], minlength=k)
            if (cnt % sizes).any():
                raise CrossCheckFailed(NOT_CONSTANT)
            A[i, j] = cnt // sizes
    return A


def _dense(G, conj):
    """The sparse class constants as the k x k x k array they stand for,
    after checking their layout: ascending distinct cells, positive int64
    counts, at most k*|G| of them."""
    cells, counts = characters._class_matrices(G, conj)
    k = conj.class_count
    assert cells.dtype == counts.dtype == np.int64
    assert (np.diff(cells) > 0).all() and (counts > 0).all()
    assert len(cells) == len(counts) <= k * G.order
    assert 0 <= cells[0] and cells[-1] < k**3
    A = np.zeros(k**3, dtype=np.int64)
    A[cells] = counts
    return A.reshape(k, k, k)


@pytest.mark.parametrize("name", battery_names())
def test_class_matrices_match_double_loop(name):
    G = get_group(name)
    conj = conjugacy.conjugacy_classes(G)
    assert np.array_equal(_dense(G, conj), _class_matrices_oracle(G, conj))


_RETRACED_BUILDERS = {
    **{name: BATTERY_BUILDERS[name] for name in ("S4", "A5xZ2", "Q8", "CL3")},
    "S6": lambda: groups.symmetric(6),
}


@pytest.mark.parametrize("name", list(_RETRACED_BUILDERS))
def test_class_matrices_without_table_match_double_loop(name):
    """The same constants over another search tree, and on S6."""
    G = retraced(_RETRACED_BUILDERS[name]())
    conj = conjugacy.conjugacy_classes(G)
    assert np.array_equal(_dense(G, conj), _class_matrices_oracle(G, conj))


@pytest.mark.parametrize("name", ["S4", "A5xZ2"])
def test_class_matrices_form_at_most_k_times_order_products(name, monkeypatch):
    """Every product is a word walk; the class constants take one per
    (element, class), not one per pair of elements."""
    G = BATTERY_BUILDERS[name]()
    conj = conjugacy.conjugacy_classes(G)
    mul = groups.GroupTable.mul
    counted = []

    def counting_mul(self, a, b):
        counted.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
        return mul(self, a, b)

    monkeypatch.setattr(groups.GroupTable, "mul", counting_mul)
    characters._class_matrices(G, conj)
    assert 0 < sum(counted) <= conj.class_count * G.order < G.order**2


@pytest.mark.parametrize("name", battery_names())
def test_class_matrices_do_not_depend_on_the_representatives(name):
    G = get_group(name)
    conj = conjugacy.conjugacy_classes(G)
    last = dataclasses.replace(
        conj, representatives=np.array([c[-1] for c in _members(conj)])
    )
    if not G.is_abelian():
        assert not np.array_equal(last.representatives, conj.representatives)
    assert np.array_equal(_dense(G, last), _dense(G, conj))


def _move_element(conj, g, target):
    """A copy of conj with element g moved into class `target`."""
    class_of = conj.class_of.copy()
    class_of[g] = target
    return dataclasses.replace(
        conj,
        class_of=class_of,
        class_sizes=np.bincount(class_of, minlength=conj.class_count),
    )


def _moves(G, conj):
    """Every (element, target class) move of a non-representative element."""
    for g in np.setdiff1d(np.arange(G.order), conj.representatives).tolist():
        for target in range(conj.class_count):
            if target != conj.class_of[g]:
                yield g, target


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CrossCheckFailed as exc:
        return str(exc)


# The only moves whose partitions pass the double loop's divisibility check,
# as (element, target class): each gives constants of a partition that is
# not the class partition.
_ACCEPTED_BY_THE_DOUBLE_LOOP = {
    "S3": {("(2 3)", 0), ("(1 3)", 0)},
    "D4": {("(1 4)(2 3)", 3), ("(1 3)", 3)},
    "A4": {("(1 4)(2 3)", 0), ("(1 2)(3 4)", 0)},
}
_MOVE_GROUPS = ["S3", "Q8", "D4", "A4", "S4"]


@pytest.mark.parametrize("name", _MOVE_GROUPS)
def test_class_matrices_refuse_a_wrong_partition_as_the_double_loop(name):
    """Every move of one non-representative element to another class that
    the double loop refuses is refused with the same message.  The double
    loop accepts only the named moves, and those are refused too."""
    G = get_group(name)
    conj = conjugacy.conjugacy_classes(G)
    accepted = set()
    for g, target in _moves(G, conj):
        moved = _move_element(conj, g, target)
        got = _outcome(characters._class_matrices, G, moved)
        want = _outcome(_class_matrices_oracle, G, moved)
        assert isinstance(got, str) and got == NOT_CONSTANT
        if isinstance(want, str):
            assert want == got
        else:
            accepted.add((G.label(g), target))
    assert accepted == _ACCEPTED_BY_THE_DOUBLE_LOOP.get(name, set())


def test_class_matrices_refuse_every_wrong_partition():
    outcomes = [
        _outcome(characters._class_matrices, G, _move_element(conj, g, target))
        for G in map(get_group, _MOVE_GROUPS)
        for conj in [conjugacy.conjugacy_classes(G)]
        for g, target in _moves(G, conj)
    ]
    assert len(outcomes) == 130
    assert all(isinstance(o, str) and o == NOT_CONSTANT for o in outcomes)


def _tensordot_combination(cells, counts, r):
    """The dense path: the k x k x k array filled from the cells and
    contracted with r."""
    k = len(r)
    A = np.zeros(k**3)
    A[cells] = counts
    return np.tensordot(r, A.reshape(k, k, k), axes=(0, 0))


_LARGE_BUILDERS = {
    "D397": lambda: groups.dihedral(397),        # 200 classes, the class cap
    "D300": lambda: groups.dihedral(300),
    "A5xA5": lambda: groups.direct_product(groups.alternating(5), groups.alternating(5)),
    "S7": lambda: groups.symmetric(7),           # no table
    "CL7": lambda: groups.clifford(7),
}


@pytest.mark.parametrize("name", battery_names() + ["D397", "S7"])
def test_class_combination_matches_the_dense_tensordot(name):
    G = get_group(name) if name in BATTERY_BUILDERS else _LARGE_BUILDERS[name]()
    conj = conjugacy.conjugacy_classes(G)
    cells, counts = characters._class_matrices(G, conj)
    rng = np.random.default_rng(characters.DEFAULT_SEED)
    for _ in range(3):
        r = rng.standard_normal(conj.class_count)
        M = characters._class_combination(cells, counts, r)
        want = _tensordot_combination(cells, counts, r)
        assert M.shape == want.shape == (conj.class_count,) * 2
        assert np.abs(M - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", list(_LARGE_BUILDERS))
def test_table_rows_keep_the_dense_path_order(name, monkeypatch):
    """The sparse combination moves the eigenvectors by float noise only:
    the same degrees, the same row order and entries within 1e-9 of the
    table from the dense tensordot under the same seed."""
    sparse = characters.compute_character_table(_LARGE_BUILDERS[name]())
    monkeypatch.setattr(characters, "_class_combination", _tensordot_combination)
    dense = characters.compute_character_table(_LARGE_BUILDERS[name]())
    assert np.array_equal(sparse.degrees, dense.degrees)
    assert np.abs(sparse.values - dense.values).max() < 1e-9


def test_d397_table_holds_no_cube_of_class_constants():
    """At D397's 200 classes the dense constants alone were 64 MB."""
    G = groups.dihedral(397)
    tracemalloc.start()
    try:
        t = characters.compute_character_table(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.class_count == 200
    assert peak < 16e6


def _tau_row_permutation_oracle(t, tau):
    """The k x k x k broadcast: every twisted row against every row at once."""
    twisted = t.values[:, t.conj.tau_class_image(tau)]
    diffs = np.abs(twisted[:, None, :] - t.values[None, :, :]).max(axis=2)
    perm = diffs.argmin(axis=1)
    return perm, float(diffs[np.arange(len(perm)), perm].max())


@pytest.mark.parametrize("name", battery_names())
def test_tau_row_permutation_matches_broadcast(name):
    t = table(name)
    for _, tau in available_taus(t.group):
        perm, worst = _tau_row_permutation_oracle(t, tau)
        assert worst <= characters.INT_TOL
        assert np.array_equal(characters.tau_row_permutation(t, tau), perm)


def _tau_row_permutation_loop(t, tau):
    """Row by row, without the k x k x k broadcast: each twisted row against
    every row by max-abs difference."""
    twisted = t.values[:, t.conj.tau_class_image(tau)]
    perm = np.empty(len(twisted), dtype=np.int64)
    worst = 0.0
    for i, row in enumerate(twisted):
        diffs = np.abs(t.values - row).max(axis=1)
        perm[i] = diffs.argmin()
        worst = max(worst, float(diffs[perm[i]]))
    return perm, worst


@pytest.mark.parametrize("name,tau_name", [
    *((name, "inverse") for name in _LARGE_BUILDERS), ("CL7", "clifford")])
def test_tau_row_permutation_matches_the_row_loop(name, tau_name):
    """The one k x k product picks the rows the max-abs loop picks, so the
    residual checked at INT_TOL is the same float."""
    t = characters.compute_character_table(_LARGE_BUILDERS[name]())
    tau = getattr(morphisms, f"tau_{tau_name}")(t.group)
    perm, worst = _tau_row_permutation_loop(t, tau)
    got = characters.tau_row_permutation(t, tau)
    assert np.array_equal(got, perm)
    twisted = t.values[:, t.conj.tau_class_image(tau)]
    assert float(np.abs(t.values[got] - twisted).max()) == worst <= characters.INT_TOL


def test_tau_row_permutation_reports_the_worst_residual():
    G = groups.cyclic(7)
    t = characters.compute_character_table(G)
    tau = morphisms.tau_inverse(G)          # pairs rows (1 2), (3 4), (5 6)
    bent = dataclasses.replace(t, values=t.values.copy())
    bent.values[1, 1] += 1e-3               # rows 1 and 2 now match to 1e-3,
    bent.values[3, 1] += 2e-3               # rows 3 and 4 to 2e-3, the worst
    with pytest.raises(NoMatchingRow, match=r"residual 0\.002\)$"):
        characters.tau_row_permutation(bent, tau)
    _, worst = _tau_row_permutation_oracle(bent, tau)
    assert worst == pytest.approx(2e-3)


def test_tau_row_permutation_refuses_a_repeated_row():
    t = table("Z3")
    twin = dataclasses.replace(t, values=t.values.copy())
    twin.values[2] = twin.values[1]         # rows 1 and 2 now both match row 1
    with pytest.raises(NoMatchingRow, match="^tau-conjugation did not permute the rows$"):
        characters.tau_row_permutation(twin, morphisms.tau_identity(t.group))

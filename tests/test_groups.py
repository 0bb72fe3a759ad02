import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taumackey import groups, morphisms
from taumackey.conjugacy import ConjugacyData
from taumackey.errors import (
    ClosureCapExceeded,
    InvalidMap,
    NonGroup,
    NotASubgroup,
    UnknownFamily,
)

from battery import BATTERY_BUILDERS, battery_names, get_group
from oracles import LIGHT_CAP, mul_table, subgroup_table, verify_group_axioms


def test_closure_s3_from_transposition_and_cycle():
    g = groups.enumerate_from_generators(
        [(1, 0, 2), (1, 2, 0)], groups.perm_compose, (0, 1, 2), groups.perm_label
    )
    assert g.order == 6
    assert g.labels[0] == "e"


def test_closure_trivial_group():
    g = groups.enumerate_from_generators(
        [(0, 1)], groups.perm_compose, (0, 1), groups.perm_label
    )
    assert g.order == 1


def test_closure_signed_subsets_order_eight():
    # gamma_1, gamma_2 and the central sign generate all 8 signed subsets
    gens = [(1, 0b01), (1, 0b10), (-1, 0)]
    g = groups.enumerate_from_generators(gens, groups.clifford_mul, (1, 0), str)
    assert g.order == 8


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        groups.symmetric(8, cap=1000)


def test_non_group_detected():
    # a non-invertible transformation closes into a monoid with no identity
    def compose(a, b):
        return tuple(a[x] for x in b)

    with pytest.raises(NonGroup):
        groups.enumerate_from_generators([(1, 2, 2)], compose, (0, 1, 2), str)
    # a constant map and the identity: a monoid with no inverses
    with pytest.raises(NonGroup, match="not a bijection"):
        groups.enumerate_from_generators([(0, 0), (0, 1)], compose, (0, 1), str)


def test_wrong_identity_is_refused():
    with pytest.raises(NonGroup, match="identity does not fix every generator"):
        groups.enumerate_from_generators(
            [(1, 0, 2), (1, 2, 0)], groups.perm_compose, (1, 2, 0), groups.perm_label
        )
    # a left identity of the generators that is not a right one
    def left_zero(a, b):
        return b

    with pytest.raises(NonGroup, match="identity does not fix every generator"):
        groups.enumerate_from_generators([1, 2], left_zero, 0)


@pytest.mark.parametrize("name", battery_names())
def test_battery_group_axioms(name):
    verify_group_axioms(get_group(name))



def test_light_test_rejects_nonassociative_loop():
    # an order-5 loop (Latin square with identity 0) that is not a group
    table = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                      [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]], dtype=np.int32)
    loop = groups.GroupTable(5, "eabcd".__getitem__, [1, 2], "loop", table[:, [1, 2]].T)
    # multiplied along Cayley words from the loop's columns: not a group either
    with pytest.raises(NonGroup):
        verify_group_axioms(loop)
    loop.mul = lambda a, b: table[a, b].astype(np.int64)  # the loop itself
    with pytest.raises(NonGroup, match="associativity"):
        verify_group_axioms(loop)

def test_semidirect_axioms():
    z4 = groups.cyclic(4)
    g = groups.construct_semidirect_with_involution(z4, morphisms.tau_inverse(z4))
    verify_group_axioms(g)


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        groups.construct_family("sporadic", 1)
    with pytest.raises(UnknownFamily):
        groups.construct_family("cyclic")


def test_quaternion8_takes_no_n():
    with pytest.raises(UnknownFamily, match="^family 'quaternion8' takes no parameter n$"):
        groups.construct_family("quaternion8", 5)


def test_quaternion8_single_involution():
    q8 = get_group("Q8")
    assert q8.order == 8
    involutions = [g for g in range(1, 8) if q8.mul(g, g) == 0]
    assert len(involutions) == 1


def test_clifford2_relations():
    cl2 = get_group("CL2")
    assert cl2.order == 8
    assert not cl2.is_abelian()
    g1, g2 = cl2.element_id("g1"), cl2.element_id("g2")
    assert cl2.mul(g1, g2) == cl2.element_id("g12")
    assert cl2.mul(g2, g1) == cl2.element_id("-g12")


def test_clifford1_abelian_of_order_four():
    cl1 = get_group("CL1")
    assert cl1.order == 4
    assert cl1.is_abelian()


@pytest.mark.parametrize("n", [2, 4])
def test_clifford_center_two_elements_for_even_n(n):
    g = groups.clifford(n)
    t = mul_table(g)
    center = np.flatnonzero((t == t.T).all(axis=1))
    assert set(center) == {0, g.element_id("-1")}


def test_clifford_orders():
    for n in range(1, 6):
        assert groups.clifford(n).order == 2 ** (n + 1)


def test_clifford_inverse_sign_rule():
    cl2 = get_group("CL2")
    g12 = cl2.element_id("g12")
    assert cl2.inverse[g12] == cl2.element_id("-g12")


def test_subset_inversion_counts():
    assert groups._subset_inversions(0b01, 0b10) == 0  # 1 before 2
    assert groups._subset_inversions(0b10, 0b01) == 1  # 2 after 1
    assert groups._subset_inversions(0b111, 0b111) == 3  # pairs above the diagonal


def test_direct_product_componentwise():
    a, b = groups.symmetric(3), groups.cyclic(4)
    p = groups.direct_product(a, b)
    assert p.order == 24
    for _ in range(50):
        x = np.random.default_rng(1).integers(0, 24, size=2)
        i, j = int(x[0]), int(x[1])
        ai, bi = divmod(i, 4)
        aj, bj = divmod(j, 4)
        assert p.mul(i, j) == a.mul(ai, aj) * 4 + b.mul(bi, bj)
        assert p.inverse[i] == a.inverse[ai] * 4 + b.inverse[bi]


def test_semidirect_with_inversion_is_abelian_of_order_six():
    # alpha(n) = tau(n^-1) is the identity when tau is inversion, so the
    # extension of Z3 is the cyclic group of order 6 (not the symmetric group)
    z3 = groups.cyclic(3)
    g = groups.construct_semidirect_with_involution(z3, morphisms.tau_inverse(z3))
    assert g.order == 6
    assert g.is_abelian()
    orders = set()
    for x in range(6):
        y, k = x, 1
        while y != 0:
            y = g.mul(y, x)
            k += 1
        orders.add(k)
    assert max(orders) == 6  # cyclic of order 6


def test_semidirect_with_identity_twist_is_symmetric_like():
    z3 = groups.cyclic(3)
    g = groups.construct_semidirect_with_involution(z3, morphisms.tau_identity(z3))
    assert g.order == 6
    assert not g.is_abelian()


def test_semidirect_trivial_base():
    t = groups.cyclic(1)
    g = groups.construct_semidirect_with_involution(t, morphisms.tau_inverse(t))
    assert g.order == 2


def test_semidirect_relations_z4():
    z4 = groups.cyclic(4)
    tau = morphisms.tau_inverse(z4)
    g = groups.construct_semidirect_with_involution(z4, tau)
    h = g.meta["h"]
    assert g.mul(h, h) == 0
    for n in range(4):
        assert g.mul(g.mul(h, n), h) == z4.inverse[tau.images[n]]


def test_semidirect_rejects_plain_automorphism():
    z3 = groups.cyclic(3)
    auto = morphisms.validate(z3, np.arange(3), "automorphism")
    with pytest.raises(InvalidMap):
        groups.construct_semidirect_with_involution(z3, auto)


def test_parse_cycles():
    assert groups.parse_cycles("(1 2 3)", 3) == (1, 2, 0)
    assert groups.parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert groups.parse_cycles("(1,2)", 4) == (1, 0, 2, 3)
    assert groups.parse_cycles("e", 3) == (0, 1, 2)
    with pytest.raises(InvalidMap):
        groups.parse_cycles("(1 5)", 3)
    with pytest.raises(InvalidMap):
        groups.parse_cycles("(1 1)", 3)
    with pytest.raises(InvalidMap):
        groups.parse_cycles("1 2", 3)


def test_perm_label_roundtrip():
    s4 = get_group("S4")
    for i in range(s4.order):
        assert s4.element_id(s4.labels[i]) == i


def test_subgroup_closure_and_table():
    s4 = get_group("S4")
    ids = groups.subgroup_closure(
        s4, [s4.element_id("(1 2)"), s4.element_id("(1 2 3)")]
    )
    assert len(ids) == 6
    sub, emb = subgroup_table(s4, ids)
    assert sub.order == 6
    verify_group_axioms(sub)
    # multiplication commutes with the embedding
    for a in range(6):
        for b in range(6):
            assert emb[sub.mul(a, b)] == s4.mul(int(emb[a]), int(emb[b]))


def test_not_a_subgroup():
    s3 = get_group("S3")
    with pytest.raises(NotASubgroup):
        groups.check_subgroup(s3, [0, s3.element_id("(1 2 3)")])
    with pytest.raises(NotASubgroup):
        groups.check_subgroup(s3, [s3.element_id("(1 2)")])


def closure_oracle_refusal(G, ids):
    """The |K|^2 check: the refusal text for ids, or None for a subgroup."""
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    if len(ids) == 0 or ids[0] != 0:
        return "subgroup must contain the identity (id 0)"
    member = np.zeros(G.order, dtype=bool)
    member[ids] = True
    if not member[G.mul(ids[:, None], ids)].all():
        return "set is not closed under multiplication"
    if not member[G.inverse[ids]].all():
        return "set is not closed under inversion"
    return None


def check_subgroup_against_oracle(G, ids):
    """check_subgroup refuses exactly when the oracle does, with its text;
    otherwise its generators are the greedy picks and span exactly the ids.
    Returns whether the set was accepted."""
    expected = closure_oracle_refusal(G, ids)
    if expected is not None:
        with pytest.raises(NotASubgroup) as info:
            groups.check_subgroup(G, ids)
        assert str(info.value) == expected
        return False
    K, gens = groups.check_subgroup(G, ids)
    assert np.array_equal(K, np.unique(ids)) and gens.dtype == np.int64
    assert np.array_equal(groups.subgroup_closure(G, gens), K)
    assert 2 ** len(gens) <= len(K)
    for i, g in enumerate(gens):
        span = groups.subgroup_closure(G, gens[:i])
        assert g == K[~np.isin(K, span)].min()
    # the subgroup's own table, built from the generators' columns, is G's
    sub, emb = subgroup_table(G, K)
    assert np.array_equal(emb, K) and sub.generators == np.searchsorted(K, gens).tolist()
    a = np.arange(len(K))
    assert np.array_equal(emb[sub.mul(a[:, None], a)], G.mul(K[:, None], K))
    return True


def test_check_subgroup_on_every_s3_subset_with_the_identity():
    s3 = get_group("S3")
    accepted = [
        check_subgroup_against_oracle(s3, [0] + [x for x in range(1, 6) if mask >> (x - 1) & 1])
        for mask in range(32)
    ]
    assert sum(accepted) == 6  # e, three of order 2, A3, S3


def _s4_subsets(count, seed):
    """Seeded subsets of S4: random sets with and without the identity,
    subgroups generated by one or two random elements, and such subgroups
    with one non-identity element added or removed."""
    rng = np.random.default_rng(seed)
    s4 = get_group("S4")
    for i in range(count):
        if i % 4 < 2:
            ids = rng.choice(24, size=rng.integers(1, 25), replace=False)
            yield np.union1d(ids, [0]) if i % 4 == 0 else ids
            continue
        K = groups.subgroup_closure(s4, rng.integers(0, 24, size=rng.integers(1, 3)))
        if i % 4 == 3:
            K = np.setxor1d(K, [rng.integers(1, 24)])
        yield K


def test_check_subgroup_on_seeded_s4_subsets():
    s4 = get_group("S4")
    accepted = [check_subgroup_against_oracle(s4, ids) for ids in _s4_subsets(200, 4)]
    assert 50 <= sum(accepted) <= 150


def test_check_subgroup_refuses_the_empty_set():
    with pytest.raises(NotASubgroup, match="identity"):
        groups.check_subgroup(get_group("S3"), [])


def test_check_subgroup_trivial_subgroup_has_no_generators():
    K, gens = groups.check_subgroup(get_group("S4"), [0])
    assert K.tolist() == [0] and gens.tolist() == []
    sub, emb = subgroup_table(get_group("S4"), [0])
    assert sub.order == 1 and sub.generators == [] and emb.tolist() == [0]


def test_identity_always_id_zero():
    for name in battery_names():
        g = get_group(name)
        assert all(g.mul(0, x) == x and g.mul(x, 0) == x for x in range(g.order))


# ---------------------------------------------------------------------------
# lazy labels and the one-pass closure, against the eager two-pass build
# ---------------------------------------------------------------------------

def _two_pass_closure(seeds, compose, label):
    """The closure as first written: breadth-first discovery, then a second
    compose sweep for the right-multiplication columns, and every label
    built eagerly.  The table is filled column by column from those columns,
    so it never calls GroupTable.mul.  Returns (elements, labels, generator
    ids, table, inverse)."""
    index = {g: i for i, g in enumerate(seeds)}
    order = list(seeds)
    parent = [None] * len(seeds)
    frontier = list(range(len(seeds)))
    while frontier:
        new_frontier = []
        for i in frontier:
            for s, gen in enumerate(seeds):
                c = compose(order[i], gen)
                if c not in index:
                    index[c] = len(order)
                    order.append(c)
                    parent.append((i, s))
                    new_frontier.append(index[c])
        frontier = new_frontier
    n = len(order)
    right_by = [[index[compose(order[i], gen)] for i in range(n)] for gen in seeds]
    e_old = next(i for i in range(n)
                 if all(right_by[s][i] == s for s in range(len(seeds))))
    old_of_new = [e_old] + [i for i in range(n) if i != e_old]
    remap = np.empty(n, dtype=np.int64)
    remap[old_of_new] = np.arange(n)
    elements = [order[i] for i in old_of_new]
    element_index = {el: i for i, el in enumerate(elements)}
    labels = [label(el) for el in elements]
    gen_ids = [int(remap[index[g]]) for g in seeds]
    right_new = [remap[np.array(col)][old_of_new] for col in right_by]
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n)
    for s, gid in enumerate(gen_ids):
        if gid != 0:
            table[:, gid] = right_new[s]
    for old_j in range(n):
        if parent[old_j] is None or remap[old_j] == 0:
            continue
        pi, s = parent[old_j]
        table[:, remap[old_j]] = right_new[s][table[:, remap[pi]]]
    return elements, labels, gen_ids, table, _inverse_from_table(table)


def _inverse_from_table(table):
    n = table.shape[0]
    rows, cols = np.nonzero(table == 0)
    assert np.array_equal(rows, np.arange(n)), "some element lacks a unique right inverse"
    inverse = np.empty(n, dtype=np.int32)
    inverse[rows] = cols
    assert (table[inverse, np.arange(n)] == 0).all(), "one-sided inverses only"
    return inverse


def _denoted_elements(G) -> list:
    """The concrete element each id denotes: the n-point permutation of an
    affine pair, else the closure's own element."""
    if isinstance(G._element_index, groups._AffineIndex):
        return [groups._affine_perm(x, G.meta["degree"]) for x in G.elements]
    return G.elements


def _closure_inputs(G):
    """The seeds, compose and element label a closure-built group came from.
    The cyclic and dihedral families give their generators as n-point
    tuples, so the oracle closes the permutations, not the pairs."""
    elements = _denoted_elements(G)
    seeds = [elements[s] for s in G.generators]
    if "degree" in G.meta:
        return seeds, groups.perm_compose, groups.perm_label
    if "clifford_n" in G.meta:
        def label(x):
            return groups._clifford_label(x, G.meta["clifford_n"])
        return seeds, groups.clifford_mul, label
    return seeds, groups._quat_mul, groups._quat_label


# the cyclic and dihedral families built as affine pairs (D1 and D2 stay
# permutation groups), each against the closure of its n-point tuples
AFFINE_CASES = [f"Z{n}" for n in range(1, 21)] + [f"D{n}" for n in range(1, 21)] + [
    "D397", "D1000"]


def _family_builder(name):
    family = groups.cyclic if name[0] == "Z" else groups.dihedral
    return lambda: family(int(name[1:]))


CLOSURE_BUILDERS = {
    **{name: (lambda name=name: get_group(name))
       for name in battery_names() if name != "A5xZ2"},
    **{name: _family_builder(name) for name in AFFINE_CASES if name not in BATTERY_BUILDERS},
    "CL11": lambda: groups.clifford(11),
    "S7": lambda: groups.symmetric(7),
    # the other families the benchmark and acceptance jobs build (their
    # D300 and D500 take the affine path of D397 and D1000)
    "S6": lambda: groups.symmetric(6),
    "A5": lambda: groups.alternating(5),
    "A6": lambda: groups.alternating(6),
    "CL7": lambda: groups.clifford(7),
    "CL10": lambda: groups.clifford(10),
}


@pytest.fixture(scope="module")
def closure_case():
    """name -> (group, its two-pass build); each built once per module."""
    cases = {}

    def get(name):
        if name not in cases:
            G = CLOSURE_BUILDERS[name]()
            cases[name] = G, _two_pass_closure(*_closure_inputs(G))
        return cases[name]

    return get


def _other_cycle_notation(perm) -> str:
    """The same permutation written differently from its label: cycles in
    reverse order, each starting at its largest point, comma separated."""
    label = groups.perm_label(perm)
    if label == "e":
        return "()"
    cycles = label.strip("()").split(")(")
    out = []
    for cyc in reversed(cycles):
        pts = cyc.split()
        k = pts.index(max(pts, key=int))
        out.append("(" + ",".join(pts[k:] + pts[:k]) + ")")
    return "".join(out)


def _assert_multiplies_as(G, table):
    """G.mul against a table that does not come from it, 512 rows at a time
    (a whole S7 table of walks would take hundreds of megabytes)."""
    ids = np.arange(G.order)
    for rows in np.array_split(ids, -(-G.order // 512)):
        assert np.array_equal(G.mul(rows[:, None], ids), table[rows])


@pytest.mark.parametrize("name", list(CLOSURE_BUILDERS))
def test_closure_matches_two_pass_build(name, closure_case):
    G, (elements, _, gen_ids, table, inverse) = closure_case(name)
    assert _denoted_elements(G) == elements
    assert G.generators == gen_ids
    _assert_multiplies_as(G, table)
    assert np.array_equal(G.inverse, inverse)


@st.composite
def permutation_generators(draw):
    """Up to five generators of degree <= 6 drawn from the identity and up
    to three random permutations, so duplicates and the identity occur."""
    degree = draw(st.integers(1, 6))
    pool = [tuple(range(degree))] + draw(st.lists(
        st.permutations(range(degree)).map(tuple), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))
    return degree, [pool[i] for i in picks]


@settings(max_examples=150, deadline=None)
@given(permutation_generators())
def test_closure_from_the_identity_matches_the_identity_search(case):
    """Closing from the identity gives the ids that closing from the
    generators, then searching for the identity and renumbering, gives."""
    degree, gens = case
    G = groups.enumerate_from_generators(
        gens, groups.perm_compose, tuple(range(degree)), groups.perm_label)
    seeds = list(dict.fromkeys(gens))
    elements, _, gen_ids, table, inverse = _two_pass_closure(
        seeds, groups.perm_compose, groups.perm_label)
    assert G.elements == elements
    assert G.generators == gen_ids
    assert np.array_equal(mul_table(G), table)  # its columns x -> x*s included
    assert np.array_equal(G.inverse, inverse)


@pytest.mark.parametrize("name", list(CLOSURE_BUILDERS))
def test_lazy_labels_match_eager(name, closure_case):
    G, (_, labels, _, _, _) = closure_case(name)
    assert [G.label(a) for a in range(G.order)] == labels
    assert G.labels == labels


@pytest.mark.parametrize("name", list(CLOSURE_BUILDERS))
def test_element_id_resolves_labels_and_cycles(name, closure_case):
    G, (elements, labels, _, _, _) = closure_case(name)
    assert len(set(labels)) == G.order
    for a, lab in enumerate(labels):
        assert G.element_id(lab) == a
    if "degree" in G.meta:
        for a, perm in enumerate(elements):
            assert G.element_id(_other_cycle_notation(perm)) == a


def test_cycle_strings_resolve_without_building_labels():
    g = groups.dihedral(50)
    rotation = "(" + " ".join(str(k) for k in range(1, 51)) + ")"
    assert g.element_id(rotation) == g.generators[0]
    assert g.element_id("e") == 0
    assert g._labels is None
    with pytest.raises(InvalidMap, match="no element"):
        g.element_id("(1 2)")  # a transposition, not a symmetry of the 50-gon
    with pytest.raises(InvalidMap, match="bad cycle"):
        g.element_id("(1 x)")


def test_derived_groups_label_lazily():
    s3, z4 = groups.symmetric(3), groups.cyclic(4)
    for a, b in [(s3, z4), (get_group("S4"), groups.cyclic(3))]:
        p = groups.direct_product(a, b)
        eager = [f"({la},{lb})" for la in a.labels for lb in b.labels]
        assert [p.label(x) for x in range(p.order)] == p.labels == eager
        assert all(p.element_id(lab) == x for x, lab in enumerate(eager))
    sd = groups.construct_semidirect_with_involution(z4, morphisms.tau_inverse(z4))
    eager = z4.labels + ["h" if a == 0 else f"h*{la}" for a, la in enumerate(z4.labels)]
    assert [sd.label(x) for x in range(sd.order)] == sd.labels == eager
    s4 = get_group("S4")
    ids = groups.subgroup_closure(s4, [s4.element_id("(1 2)"), s4.element_id("(3 4)")])
    sub, emb = subgroup_table(s4, ids)
    assert sub.labels == [s4.labels[i] for i in emb] == ["e", "(1 2)", "(3 4)", "(1 2)(3 4)"]


def test_parse_cycles_rejects_non_integer_points():
    with pytest.raises(InvalidMap, match="integers"):
        groups.parse_cycles("(1 x)", 3)


# ---------------------------------------------------------------------------
# one way to multiply: the Cayley-word walk against tables it did not build
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", battery_names())
def test_battery_without_table_multiplies_as_dense(name, closure_case):
    """Every product a battery group forms, against a dense table that does
    not come from its mul: its two-pass closure, or for A5xZ2 the tables of
    its factors, with (a, b) at id a*2 + b."""
    G = get_group(name)
    if name == "A5xZ2":
        t5, t2 = closure_case("A5")[1][3], closure_case("Z2")[1][3]
        t = (t5[:, None, :, None] * 2 + t2[None, :, None, :]).reshape(120, 120)
    else:
        t = closure_case(name)[1][3]
    inverse = np.nonzero(t == 0)[1]
    assert np.array_equal(mul_table(G), t) and np.array_equal(G.inverse, inverse)
    assert all(G.mul(a, b) == t[a, b] for a, b in [(0, 0), (1, 2), (2, 1)])
    for s in G.generators:
        assert np.array_equal(G.conj_map(s), t[t[s], inverse[s]])
        assert np.array_equal(G.right_mul_map(s), t[:, s])
    assert G.is_abelian() == np.array_equal(t, t.T)
    verify_group_axioms(G)


def test_semidirect_multiplies_by_its_law(closure_case):
    s4, (_, _, _, t, _) = closure_case("S4")
    tau = morphisms.tau_inner(s4, s4.element_id("(1 2)(3 4)"))
    g = groups.construct_semidirect_with_involution(s4, tau)
    assert g.order == 48
    alpha = tau.images[s4.inverse]  # n -> tau(n^-1)
    assert not np.array_equal(alpha, np.arange(24))
    x, y = np.divmod(np.arange(48 * 48), 48)
    (e, a), (f, b) = np.divmod(x, 24), np.divmod(y, 24)
    # (a, e)(b, f) = (a * alpha^e(b), e + f mod 2), read off the table of S4
    expected = (e + f) % 2 * 24 + t[a, np.where(e == 1, alpha[b], b)]
    assert np.array_equal(g.mul(x, y), expected)
    verify_group_axioms(g)


@pytest.mark.parametrize("seed", [1, 30])
def test_semidirect_past_the_cap_multiplies_by_its_law(seed, closure_case):
    """An extension past LIGHT_CAP, where the axiom check samples triples:
    S6 twisted by an inner involution (order 1440), its products at seeded
    random pairs against the two-pass table of S6."""
    s6, (_, _, _, t, _) = closure_case("S6")
    tau = morphisms.tau_inner(s6, s6.element_id("(1 2)(3 4)"))
    g = groups.construct_semidirect_with_involution(s6, tau)
    assert g.order == 1440 > LIGHT_CAP
    alpha = tau.images[s6.inverse]  # n -> tau(n^-1)
    assert not np.array_equal(alpha, np.arange(720))
    x, y = np.random.default_rng(seed).integers(0, 1440, size=(2, 5000))
    (e, a), (f, b) = np.divmod(x, 720), np.divmod(y, 720)
    expected = (e + f) % 2 * 720 + t[a, np.where(e == 1, alpha[b], b)]
    assert np.array_equal(g.mul(x, y), expected)
    assert not verify_group_axioms(g)["associativity_exhaustive"]


def _search_moves(g):
    """The moves of g's search, from g.mul: the generators and their
    inverses, then each one squared again and again while 2^j < |G|, up to
    the identity or an element that is a move already."""
    moves = list(dict.fromkeys(m for m in [*g.generators, *g.inverse[g.generators].tolist()]
                               if m != 0))
    for m in list(moves):
        power = 2
        while power < g.order and (m := int(g.mul(m, m))) != 0 and m not in moves:
            moves.append(m)
            power *= 2
    return np.array(moves, dtype=np.int64)


@pytest.mark.parametrize("name", battery_names())
def test_along_words_evaluates_parents_first(name):
    g = get_group(name)
    rows = g.mul(np.array(g.generators)[:, None], np.arange(g.order))  # y -> s*y
    # the word length of each element is its distance from the identity
    # over the moves of the search
    moves = _search_moves(g)
    dist = np.full(g.order, -1)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        new = np.unique(g.mul(frontier[:, None], moves))
        frontier = new[dist[new] < 0]
        dist[frontier] = dist.max() + 1
    assert np.array_equal(g.along_words(np.int64(0), rows, lambda d, _: d + 1), dist)
    # the left regular representation evaluated along the words is the table
    assert np.array_equal(g.along_words(np.arange(g.order), rows, lambda r, m: r[m]),
                          mul_table(g))


def test_cayley_words_are_shallow(affine_at_the_cap):
    """A power of a generator is a few shortcut moves, not one letter per
    factor: the longest word on D1000, Z20000 and D10000 has at most 16
    letters, where a search over the generators and their inverses alone
    gives 501, 10,000 and 10,000."""
    for g in [groups.dihedral(1000), *affine_at_the_cap]:
        rows = g.mul(np.array(g.generators)[:, None], np.arange(g.order))
        assert g.along_words(np.int64(0), rows, lambda d, _: d + 1).max() <= 16


def test_only_groups_reads_the_table():
    """No module keeps a multiplication table: DENSE_CAP and a `table`
    attribute appear nowhere, groups.py included.  Every other module
    multiplies through GroupTable.mul and walks G only through
    GroupTable.along_words: no module but groups.py reads the search tree,
    no breadth-first loop over G is left elsewhere, and no module reads
    per-class member lists off a ConjugacyData."""
    import ast
    from pathlib import Path

    gone = {"require_dense", "_compose", "_inverse_by_powers", "clifford_inverse",
            "_fill_table", "DENSE_CAP", "require_involutory"}
    internals = {"_cayley_words", "_walk", "_undo", "_undo_at", "_moves", "_half",
                 "_step", "_parent", "_depth"}
    # class members are read off class_of; the only `.classes` left is the
    # class budget of the CLI
    assert "classes" not in {f.name for f in dataclasses.fields(ConjugacyData)}
    for path in sorted(Path(groups.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or \
                getattr(node, "name", None)
            assert name not in gone, (path.name, name)
            assert not (isinstance(node, ast.Attribute) and node.attr == "table"), \
                (path.name, node.lineno)
            if isinstance(node, ast.Attribute) and node.attr == "classes":
                assert ast.unparse(node.value) == "budgets", (path.name, node.lineno)
            if path.name != "groups.py":
                assert not (isinstance(node, ast.Attribute) and node.attr in internals), \
                    (path.name, node.lineno)
            if path.name in ("morphisms.py", "conjugacy.py"):
                assert not (isinstance(node, ast.While)
                            and "frontier" in ast.unparse(node.test)), (path.name, node.lineno)


# ---------------------------------------------------------------------------
# the cyclic and dihedral families as affine pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", AFFINE_CASES)
def test_affine_walks_without_table_match_the_tuple_closure(name, closure_case):
    """The walk against the law of the n-point tuples each id denotes,
    composed one pair at a time: every pair up to order 40, 2000 beyond."""
    G, _ = closure_case(name)
    perms = _denoted_elements(G)
    index = {p: i for i, p in enumerate(perms)}
    if G.order <= 40:
        a, b = np.divmod(np.arange(G.order * G.order), G.order)
    else:
        a, b = np.random.default_rng(11).integers(0, G.order, size=(2, 2000))
    law = [index[groups.perm_compose(perms[i], perms[j])] for i, j in zip(a.tolist(), b.tolist())]
    assert np.array_equal(G.mul(a, b), law)


@pytest.mark.parametrize("family, n, cycles", [
    ("dihedral", 7, "(1 2)"),          # a transposition
    ("dihedral", 8, "(1 2 3)"),        # a 3-cycle
    ("cyclic", 6, "(1 6)(2 5)(3 4)"),  # a reflection, not a rotation
    ("cyclic", 6, "(1 3 2 4 5 6)"),    # moves 0 like a rotation, then not
])
def test_affine_element_id_refuses_non_members(family, n, cycles):
    g = groups.construct_family(family, n)
    with pytest.raises(InvalidMap, match="no element matching"):
        g.element_id(cycles)


def test_affine_element_id_refuses_other_concrete_keys():
    g = groups.dihedral(4)
    assert g.element_id((1, 2, 3, 0)) == g.generators[0]
    for what in [(1, 0), [1, 2, 3, 0], (1, 2, 3), (9, 2, 3, 0), ("a", 2, 3, 0)]:
        with pytest.raises(InvalidMap, match="no element matching"):
            g.element_id(what)


@pytest.fixture(scope="module")
def affine_at_the_cap():
    """Z20000 and D10000, each of order ORDER_CAP, built once."""
    return [groups.cyclic(20000), groups.dihedral(10000)]


def test_affine_families_build_at_the_order_cap(affine_at_the_cap):
    rng = np.random.default_rng(12)
    for g in affine_at_the_cap:
        n = g.meta["degree"]
        assert g.order == groups.ORDER_CAP
        r = g.generators[0]
        assert g.mul(r, g.inverse[r]) == 0
        x, y = rng.integers(0, g.order, size=(2, 500))
        products = g.mul(x, y)
        for i, j, k in zip(x.tolist(), y.tolist(), products.tolist()):
            assert groups._affine_compose(g.elements[i], g.elements[j], n) == g.elements[k]
        assert g._labels is None  # nothing built every label


def test_affine_labels_and_lookup_at_the_order_cap(affine_at_the_cap):
    for g in affine_at_the_cap:
        n = g.meta["degree"]
        for x in (0, 1, g.order // 2 + 1, g.order - 1):
            perm = groups._affine_perm(g.elements[x], n)
            assert g.label(x) == groups.perm_label(perm)
            assert g.element_id(g.label(x)) == g.element_id(perm) == x


def test_groups_defines_no_new_public_function():
    """The benchmark's spans wrap every public module-level function, so a
    per-element helper stays private."""
    import inspect

    public = {name for name, f in vars(groups).items()
              if inspect.isfunction(f) and f.__module__ == groups.__name__
              and not name.startswith("_")}
    assert public == {
        "perm_compose", "perm_label", "parse_cycles", "enumerate_from_generators",
        "cyclic", "symmetric", "alternating", "dihedral", "quaternion8",
        "clifford_mul", "clifford", "direct_product", "construct_family",
        "construct_semidirect_with_involution", "subgroup_closure", "check_subgroup",
    }


# ---------------------------------------------------------------------------
# family orders refused before any closure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, n, order", [
    ("cyclic", 9, 9),
    ("dihedral", 9, 18),
    ("symmetric", 5, 120),
    ("alternating", 5, 60),
    ("clifford", 4, 32),
])
def test_family_order_over_the_cap_is_refused_up_front(family, n, order, monkeypatch):
    assert groups.construct_family(family, n, cap=order).order == order
    # one past the order: no closure may start
    def no_closure(*args, **kwargs):
        raise AssertionError("closure started")
    monkeypatch.setattr(groups, "enumerate_from_generators", no_closure)
    with pytest.raises(ClosureCapExceeded, match=rf"^{family}\({n}\) has order .* > cap {order - 1}$"):
        groups.construct_family(family, n, cap=order - 1)
    # n alone decides: no n-point tuple, n! or 2^(n+1) is formed (2^(10^9+1)
    # alone takes seconds), so the refusal is immediate
    start = time.perf_counter()
    with pytest.raises(ClosureCapExceeded, match=rf"^{family}\(1000000000\) has order"):
        groups.construct_family(family, 10**9)
    assert time.perf_counter() - start < 0.5


def test_family_cap_refusal_texts():
    texts = {}
    for family, n in [("cyclic", 20001), ("dihedral", 10001), ("symmetric", 8),
                      ("alternating", 9), ("clifford", 14)]:
        with pytest.raises(ClosureCapExceeded) as info:
            groups.construct_family(family, n)
        texts[family] = str(info.value)
    assert texts == {
        "cyclic": "cyclic(20001) has order 20001 > cap 20000",
        "dihedral": "dihedral(10001) has order 20002 > cap 20000",
        "symmetric": "symmetric(8) has order 8! > cap 20000",
        "alternating": "alternating(9) has order 9!/2 > cap 20000",
        "clifford": "clifford(14) has order 2^15 > cap 20000",
    }

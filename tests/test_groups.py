import numpy as np
import pytest

from taumackey import groups, morphisms
from taumackey.errors import (
    ClosureCapExceeded,
    InvalidMap,
    NonGroup,
    NotASubgroup,
    UnknownFamily,
)

from battery import battery_names, get_group


def test_closure_s3_from_transposition_and_cycle():
    g = groups.enumerate_from_generators(
        [(1, 0, 2), (1, 2, 0)], groups.perm_compose, groups.perm_label
    )
    assert g.order == 6
    assert g.labels[0] == "e"


def test_closure_trivial_group():
    g = groups.enumerate_from_generators([(0, 1)], groups.perm_compose, groups.perm_label)
    assert g.order == 1


def test_closure_signed_subsets_order_eight():
    # gamma_1, gamma_2 and the central sign generate all 8 signed subsets
    gens = [(1, 0b01), (1, 0b10), (-1, 0)]
    g = groups.enumerate_from_generators(gens, groups.clifford_mul, str)
    assert g.order == 8


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        groups.symmetric(8, cap=1000)


def test_non_group_detected():
    # a non-invertible transformation closes into a monoid with no identity
    def compose(a, b):
        return tuple(a[x] for x in b)

    with pytest.raises(NonGroup):
        groups.enumerate_from_generators([(1, 2, 2)], compose, str)


@pytest.mark.parametrize("name", battery_names())
def test_battery_group_axioms(name):
    groups.verify_group_axioms(get_group(name))



def test_light_test_rejects_nonassociative_loop():
    # an order-5 loop (Latin square with identity 0) that is not a group
    table = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                      [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]], dtype=np.int32)
    loop = groups.GroupTable(5, list("eabcd"), [1, 2], "loop", table,
                             np.arange(5, dtype=np.int32))
    with pytest.raises(NonGroup, match="associativity"):
        groups.verify_group_axioms(loop)

def test_semidirect_axioms():
    z4 = groups.cyclic(4)
    g = groups.construct_semidirect_with_involution(z4, morphisms.tau_inverse(z4))
    groups.verify_group_axioms(g)


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        groups.construct_family("sporadic", 1)
    with pytest.raises(UnknownFamily):
        groups.construct_family("cyclic")


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
    t = g.table.astype(np.int64)
    center = np.flatnonzero((t == t.T).all(axis=1))
    assert set(center) == {0, g.element_id("-1")}


def test_clifford_orders():
    for n in range(1, 6):
        assert groups.clifford(n).order == 2 ** (n + 1)


def test_clifford_inverse_sign_rule():
    cl2 = get_group("CL2")
    g12 = cl2.element_id("g12")
    assert cl2.inv(g12) == cl2.element_id("-g12")


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
        assert p.inv(i) == a.inv(ai) * 4 + b.inv(bi)


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
        assert g.mul(g.mul(h, n), h) == z4.inv(int(tau.images[n]))


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
    sub, emb = groups.subgroup_table(s4, ids)
    assert sub.order == 6
    groups.verify_group_axioms(sub)
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


def test_lazy_path_agrees_with_dense():
    dense = groups.symmetric(4)
    lazy = groups.enumerate_from_generators(
        [(1, 0, 2, 3), (1, 2, 3, 0)],
        groups.perm_compose,
        groups.perm_label,
        dense_cap=1,
    )
    assert lazy.table is None
    assert lazy.order == dense.order == 24
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = (int(x) for x in rng.integers(0, 24, size=2))
        assert lazy.mul(a, b) == lazy._element_index[
            groups.perm_compose(lazy.elements[a], lazy.elements[b])
        ]
        assert lazy.mul(a, lazy.inv(a)) == 0
    groups.verify_group_axioms(lazy)


def test_identity_always_id_zero():
    for name in battery_names():
        g = get_group(name)
        assert all(g.mul(0, x) == x and g.mul(x, 0) == x for x in range(g.order))

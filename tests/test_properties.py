"""Randomized invariants over the group/involution battery."""

import numpy as np
from hypothesis import given, settings, strategies as st

from taumackey import conjugacy, groups, morphisms
from taumackey.errors import InvalidMap

from battery import available_taus, battery_names, get_group
from oracles import mul_table, twisted_orbit_count, verify_group_axioms

names = st.sampled_from(battery_names())


@settings(max_examples=30, deadline=None)
@given(names, st.integers(0, 10**6))
def test_sampled_associativity(name, seed):
    g = get_group(name)
    rng = np.random.default_rng(seed)
    a, b, c = (int(x) for x in rng.integers(0, g.order, size=3))
    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


@settings(max_examples=30, deadline=None)
@given(names, st.integers(0, 10**6))
def test_inverse_axiom(name, seed):
    g = get_group(name)
    x = int(np.random.default_rng(seed).integers(0, g.order))
    assert g.mul(x, g.inverse[x]) == 0
    assert g.mul(g.inverse[x], x) == 0


@settings(max_examples=25, deadline=None)
@given(names, st.integers(0, 10**6))
def test_twist_respects_products_backwards(name, seed):
    g = get_group(name)
    taus = available_taus(g)
    rng = np.random.default_rng(seed)
    _, tau = taus[int(rng.integers(0, len(taus)))]
    a, b = (int(x) for x in rng.integers(0, g.order, size=2))
    t = tau.images
    assert t[g.mul(a, b)] == g.mul(t[b], t[a])
    assert t[t[a]] == a


@settings(max_examples=20, deadline=None)
@given(names)
def test_twisted_square_counts_partition_group(name):
    g = get_group(name)
    for _, tau in available_taus(g):
        counts = conjugacy.count_twisted_squares(g, tau)
        assert counts.sum() == g.order
        conj = conjugacy.conjugacy_classes(g)
        # constant on each class: every element reads its representative's count
        assert np.array_equal(counts, counts[conj.representatives][conj.class_of])


@settings(max_examples=15, deadline=None)
@given(names, st.integers(1, 3))
def test_power_sum_inequality(name, n):
    g = get_group(name)
    for _, tau in available_taus(g):
        rep = conjugacy.power_sum_report(g, tau, n)
        assert rep.sum_twisted_square_pow <= rep.sum_centralizer_pow


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_twisted_burnside_on_random_regular_actions(seed):
    # left regular action with alpha = swap of two copies composed with right
    # translations; the averaged count must match direct enumeration (the
    # cross-check runs inside twisted_orbit_count)
    rng = np.random.default_rng(seed)
    g = get_group(["S3", "Z6", "D4", "Q8", "A4"][int(rng.integers(0, 5))])
    n = g.order
    t = mul_table(g)
    a, b = (int(x) for x in rng.integers(0, n, size=2))
    gi = {}
    for s in g.generators:
        col = t[s, :]
        gi[s] = np.concatenate([col, col + n])
    alpha = np.concatenate([t[:, a] + n, t[:, b]])
    out = twisted_orbit_count(g, 2 * n, gi, alpha)
    assert out.orbit_count == 2
    assert out.fixed_orbit_count in (0, 2)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6))
def test_closure_of_random_permutations_is_a_group(degree, seed):
    rng = np.random.default_rng(seed)
    gens = [tuple(int(x) for x in rng.permutation(degree)) for _ in range(2)]
    g = groups.enumerate_from_generators(
        gens, groups.perm_compose, tuple(range(degree)), groups.perm_label, cap=10000
    )
    verify_group_axioms(g)
    assert g.order <= 5040


cycle_strings = st.lists(
    st.lists(st.integers(1, 6), min_size=1, max_size=4).map(
        lambda pts: "(" + " ".join(map(str, pts)) + ")"),
    max_size=3,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789(), ", max_size=24), cycle_strings),
       st.integers(1, 6))
def test_parse_cycles_gives_a_bijection_or_refuses(text, degree):
    try:
        perm = groups.parse_cycles(text, degree)
    except InvalidMap:
        return
    assert sorted(perm) == list(range(degree))

import numpy as np
import pytest

from taumackey import conjugacy, groups, morphisms
from taumackey.errors import BudgetExceeded, InvalidMap

from battery import available_taus, battery_names, get_group
from oracles import mul_table, twisted_orbit_count


def test_s3_classes():
    s3 = get_group("S3")
    conj = conjugacy.conjugacy_classes(s3)
    assert sorted(conj.class_sizes) == [1, 2, 3]
    by_rep = {
        int(s): int(conj.centralizer_order[r])
        for s, r in zip(conj.class_sizes, conj.representatives)
    }
    assert by_rep == {1: 6, 3: 2, 2: 3}


def test_abelian_classes_are_singletons():
    z5 = get_group("Z5")
    conj = conjugacy.conjugacy_classes(z5)
    assert conj.class_count == 5
    assert (conj.centralizer_order == 5).all()


def test_q8_class_sizes():
    conj = conjugacy.conjugacy_classes(get_group("Q8"))
    assert sorted(conj.class_sizes) == [1, 1, 2, 2, 2]


def test_class_invariants_across_battery():
    for name in battery_names():
        g = get_group(name)
        conj = conjugacy.conjugacy_classes(g)
        # partition, counting relation, constancy of centralizer order
        assert conj.class_sizes.sum() == g.order
        assert (conj.class_sizes * conj.centralizer_order[conj.representatives]
                == g.order).all()
        for c in range(conj.class_count):
            cls = np.flatnonzero(conj.class_of == c)
            assert len({int(conj.centralizer_order[x]) for x in cls}) == 1


def test_square_root_counts_s3():
    s3 = get_group("S3")
    counts = conjugacy.count_twisted_squares(s3, morphisms.tau_inverse(s3))
    assert counts[0] == 4
    for x in range(1, 6):
        order2 = s3.mul(x, x) == 0
        assert counts[x] == (0 if order2 else 1)


def test_square_root_counts_q8():
    q8 = get_group("Q8")
    counts = conjugacy.count_twisted_squares(q8, morphisms.tau_inverse(q8))
    assert counts[0] == 2
    assert counts[q8.element_id("-1")] == 6
    assert counts.sum() == 8


def test_identity_twist_concentrates_at_identity():
    z4 = get_group("Z4")
    counts = conjugacy.count_twisted_squares(z4, morphisms.tau_identity(z4))
    assert counts.tolist() == [4, 0, 0, 0]


def test_counts_require_involutory_anti_map():
    s3 = get_group("S3")
    auto = morphisms.validate(s3, np.arange(6), "automorphism")
    with pytest.raises(InvalidMap):
        conjugacy.count_twisted_squares(s3, auto)


# --- twisted orbit counting -------------------------------------------------

def test_twisted_orbit_count_swap_example():
    z2 = get_group("Z4")  # wrong group would not commute; use true Z2
    z2 = groups.cyclic(2)
    gi = {z2.generators[0]: np.array([1, 0])}
    out = twisted_orbit_count(z2, 2, gi, np.array([1, 0]))
    assert out.fixed_orbit_count == 1
    assert out.per_element_matches_sum == 2  # p(e) = 0, p(s) = 2


def test_twisted_orbit_count_identity_is_burnside():
    s3 = get_group("S3")
    # regular action of S3 on itself; alpha = identity counts plain orbits
    gi = _regular_images(s3)
    out = twisted_orbit_count(s3, 6, gi, np.arange(6))
    assert out.fixed_orbit_count == out.orbit_count == 1


def test_twisted_orbit_count_no_fixed_orbit():
    # two copies of the regular action, alpha swaps the copies: no orbit fixed
    s3 = get_group("S3")
    n = s3.order
    gi = {s: np.concatenate([col, col + n]) for s, col in _regular_images(s3).items()}
    alpha = np.concatenate([np.arange(n) + n, np.arange(n)])
    out = twisted_orbit_count(s3, 2 * n, gi, alpha)
    assert out.orbit_count == 2
    assert out.fixed_orbit_count == 0


def test_twisted_orbit_count_right_translation():
    # alpha = right multiplication commutes with the left regular action;
    # p(g) then counts solutions of x^-1 g x = a
    s3 = get_group("S3")
    a = s3.element_id("(1 2 3)")
    gi = _regular_images(s3)
    alpha = s3.right_mul_map(a)
    out = twisted_orbit_count(s3, 6, gi, alpha)
    assert out.orbit_count == 1
    assert out.fixed_orbit_count == 1


def test_twisted_orbit_count_rejects_noncommuting():
    s3 = get_group("S3")
    gi = _regular_images(s3)
    alpha = s3.mul(s3.element_id("(1 2)"), np.arange(6))  # left mult
    with pytest.raises(AssertionError, match="alpha does not commute"):
        twisted_orbit_count(s3, 6, gi, alpha)


def _regular_images(G):
    return {s: G.mul(s, np.arange(G.order)) for s in G.generators}


@pytest.mark.parametrize("bad", ["zeros", "short", "out-of-range", "alpha-zeros"])
def test_twisted_orbit_count_refuses_images_that_are_not_permutations(bad):
    s3 = get_group("S3")
    gi, alpha = _regular_images(s3), np.arange(6)
    s = s3.generators[0]
    if bad == "zeros":  # unchecked, these end in a failed match-average assertion
        gi = {t: np.zeros(6, dtype=np.int64) for t in s3.generators}
    elif bad == "short":
        gi[s] = gi[s][:5]
    elif bad == "out-of-range":
        gi[s] = gi[s] + 1
    else:
        alpha = np.zeros(6, dtype=np.int64)
    with pytest.raises(InvalidMap, match="is not a permutation of 0..5"):
        twisted_orbit_count(s3, 6, gi, alpha)


def test_twisted_orbit_count_refuses_images_that_define_no_action():
    # the transposition acts trivially and the 3-cycle swaps two points:
    # a permutation of order 2 cannot be the image of an element of order 3
    s3 = get_group("S3")
    swap, cycle = s3.generators
    assert s3.label(swap) == "(1 2)" and s3.label(cycle) == "(1 2 3)"
    gi = {swap: np.array([0, 1]), cycle: np.array([1, 0])}
    with pytest.raises(InvalidMap, match="do not define an action"):
        twisted_orbit_count(s3, 2, gi, np.arange(2))
    # the sign action is one
    gi = {swap: np.array([1, 0]), cycle: np.array([0, 1])}
    assert twisted_orbit_count(s3, 2, gi, np.arange(2)).orbit_count == 1


def _bfs_action_perms(G, gen_images, n_points):
    """Route one's permutations as a breadth-first search over the
    generators, one product per Cayley edge: perm(g*s) = perm(g) after the
    image of s."""
    perms = np.empty((G.order, n_points), dtype=np.int64)
    perms[0] = np.arange(n_points)
    done = np.zeros(G.order, dtype=bool)
    done[0] = True
    frontier = [0]
    while frontier:
        new = []
        for g in frontier:
            for s in G.generators:
                x = G.mul(g, s)
                if not done[x]:
                    perms[x] = perms[g][gen_images[s]]
                    done[x] = True
                    new.append(x)
        frontier = new
    assert done.all()
    return perms


def test_twisted_orbit_count_matches_bfs_oracle():
    """The fifty random actions of the acceptance suite: two copies of the
    left regular action, alpha a swap of the copies after right translations."""
    picks = ["S3", "Z6", "D4", "Q8", "A4", "S4", "CL2"]
    for seed in range(50):
        rng = np.random.default_rng(seed)
        g = get_group(picks[int(rng.integers(0, len(picks)))])
        n = g.order
        t = mul_table(g)
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        gi = {s: np.concatenate([t[s, :], t[s, :] + n]) for s in g.generators}
        alpha = np.concatenate([t[:, a] + n, t[:, b]])
        perms = _bfs_action_perms(g, gi, 2 * n)
        moves = np.stack([gi[s] for s in g.generators])
        assert np.array_equal(g.along_words(np.arange(2 * n), moves, lambda p, m: p[m]),
                              perms)
        match_sum = int((perms == alpha).sum())
        out = twisted_orbit_count(g, 2 * n, gi, alpha)
        assert out.per_element_matches_sum == match_sum
        assert out.averaged_count == match_sum // n == out.fixed_orbit_count


# --- pair scans ---------------------------------------------------------------

def test_scan_n1_counts_ambivalent_classes():
    s3 = get_group("S3")
    scan = conjugacy.simultaneous_conjugation_scan(s3, 1, morphisms.tau_inverse(s3))
    assert scan.orbit_count == 3
    assert scan.tau_invariant_orbit_count == 3
    z3 = get_group("Z3")
    scan = conjugacy.simultaneous_conjugation_scan(z3, 1, morphisms.tau_inverse(z3))
    assert scan.orbit_count == 3
    assert scan.tau_invariant_orbit_count == 1


def test_scan_budget():
    s5 = get_group("S5")
    with pytest.raises(BudgetExceeded):
        conjugacy.simultaneous_conjugation_scan(
            s5, 2, morphisms.tau_inverse(s5), pair_budget=100
        )


def test_power_sums_s3():
    s3 = get_group("S3")
    rep = conjugacy.power_sum_report(s3, morphisms.tau_inverse(s3), 2)
    assert (rep.sum_twisted_square_pow, rep.sum_centralizer_pow) == (66, 66)
    assert rep.equal and rep.verified_against_orbits


def test_power_sums_q8():
    q8 = get_group("Q8")
    rep = conjugacy.power_sum_report(q8, morphisms.tau_inverse(q8), 2)
    assert (rep.sum_twisted_square_pow, rep.sum_centralizer_pow) == (224, 224)


def test_power_sums_z5_identity_n3():
    z5 = get_group("Z5")
    rep = conjugacy.power_sum_report(z5, morphisms.tau_identity(z5), 3)
    assert rep.sum_twisted_square_pow == rep.sum_centralizer_pow == 5**4


def test_power_sums_skip_marker_when_budgeted_out():
    s3 = get_group("S3")
    rep = conjugacy.power_sum_report(s3, morphisms.tau_inverse(s3), 2, pair_budget=0)
    assert rep.equal
    assert rep.verified_against_orbits is None
    assert rep.skipped_reason


@pytest.mark.parametrize("name", battery_names())
def test_power_sum_inequality_battery(name):
    g = get_group(name)
    for _, tau in available_taus(g):
        for n in (1, 2, 3):
            rep = conjugacy.power_sum_report(g, tau, n)
            assert rep.sum_twisted_square_pow <= rep.sum_centralizer_pow

import numpy as np
import pytest

from taumackey import groups, morphisms
from taumackey.errors import SpecError

from battery import available_taus, battery_names, get_group
from oracles import mul_table, retraced


def test_identity_map_is_involutory_automorphism():
    s3 = get_group("S3")
    m = morphisms.validate(s3, np.arange(6), "automorphism")
    assert m.involutory and m.kind == "automorphism"


def test_inversion_is_involutory_anti_automorphism():
    s3 = get_group("S3")
    m = morphisms.validate(s3, s3.inverse, "anti-automorphism")
    assert m.involutory


def test_inversion_claimed_automorphism_gives_witness():
    s3 = get_group("S3")
    with pytest.raises(SpecError, match="law fails at witness") as err:
        morphisms.validate(s3, s3.inverse, "automorphism")
    assert "witness" in str(err.value)


def test_not_bijective():
    s3 = get_group("S3")
    with pytest.raises(SpecError, match="not a permutation of element ids"):
        morphisms.validate(s3, np.zeros(6, dtype=int), "automorphism")
    with pytest.raises(SpecError, match="does not fix the identity"):
        morphisms.validate(s3, np.array([1, 0, 2, 3, 4, 5]), "automorphism")


def test_tau_inverse_on_z3_images():
    z3 = get_group("Z3")
    assert morphisms.tau_inverse(z3).images.tolist() == [0, 2, 1]


@pytest.mark.parametrize("name", ["S3", "Q8", "Z6", "CL2"])
def test_tau_inverse_fixes_exactly_involutions(name):
    g = get_group(name)
    tau = morphisms.tau_inverse(g)
    for x in range(g.order):
        assert (tau.images[x] == x) == (g.mul(x, x) == 0)


def test_tau_inverse_q8_fixes_only_center():
    q8 = get_group("Q8")
    tau = morphisms.tau_inverse(q8)
    fixed = np.flatnonzero(tau.images == np.arange(8)).tolist()
    assert sorted(fixed) == sorted([0, q8.element_id("-1")])


def test_tau_identity_requires_abelian():
    assert morphisms.tau_identity(get_group("Z4")).involutory
    with pytest.raises(SpecError, match="only for abelian groups"):
        morphisms.tau_identity(get_group("S3"))


def test_tau_inner_at_identity_is_inversion():
    s3 = get_group("S3")
    assert np.array_equal(morphisms.tau_inner(s3, 0).images, s3.inverse)


def test_tau_inner_s3_transposition():
    s3 = get_group("S3")
    tau = morphisms.tau_inner(s3, s3.element_id("(1 2)"))
    c = s3.element_id("(1 2 3)")
    assert tau.images[c] == c


def test_tau_inner_abelian_equals_inversion():
    z6 = get_group("Z6")
    for g0 in range(6):
        assert np.array_equal(morphisms.tau_inner(z6, g0).images, z6.inverse)


def test_tau_inner_rejects_noncentral_square():
    s4 = get_group("S4")
    g0 = s4.element_id("(1 2 3 4)")  # square (1 3)(2 4) is not central
    with pytest.raises(SpecError, match="is not involutory"):
        morphisms.tau_inner(s4, g0)


def test_tau_clifford_n3_signs():
    cl3 = get_group("CL3")
    tau = morphisms.tau_clifford(cl3)
    assert tau.images[cl3.element_id("g1")] == cl3.element_id("-g1")
    assert tau.images[0] == 0
    # involutory as a permutation
    assert np.array_equal(tau.images[tau.images], np.arange(16))


def test_tau_clifford_n2_is_inversion():
    cl2 = get_group("CL2")
    tau = morphisms.tau_clifford(cl2)
    assert np.array_equal(tau.images, cl2.inverse)
    g12 = cl2.element_id("g12")
    assert tau.images[g12] == cl2.element_id("-g12")


def test_tau_clifford_rejects_other_groups():
    with pytest.raises(SpecError, match="was not built by clifford"):
        morphisms.tau_clifford(get_group("S3"))


def test_extend_to_power():
    """tau in each coordinate of G x G is the product group's inversion."""
    s3 = get_group("S3")
    tau = morphisms.tau_inverse(s3)
    power = groups.direct_product(s3, s3)
    ext = morphisms.validate(power, (tau.images[:, None] * 6 + tau.images).ravel(),
                             "anti-automorphism")
    assert ext.involutory and np.array_equal(ext.images, power.inverse)


def test_generator_images_reproduce_inversion():
    s3 = get_group("S3")
    pairs = {
        s3.element_id("(1 2)"): s3.element_id("(1 2)"),
        s3.element_id("(1 2 3)"): s3.element_id("(1 3 2)"),
    }
    m = morphisms.tau_from_generator_images(s3, pairs)
    assert np.array_equal(m.images, s3.inverse)


def test_generator_images_identity_on_abelian():
    z6 = get_group("Z6")
    pairs = {s: s for s in z6.generators}
    m = morphisms.tau_from_generator_images(z6, pairs)
    assert np.array_equal(m.images, np.arange(6))


def test_generator_images_non_involutory_extension():
    # (1 2) -> (1 3), (1 2 3) -> (1 3 2) extends to the valid anti-map
    # g -> c g^-1 c^-1 with c = (1 3 2), whose square is conjugation by a
    # non-central element: refused when it is built
    s3 = get_group("S3")
    pairs = {
        s3.element_id("(1 2)"): s3.element_id("(1 3)"),
        s3.element_id("(1 2 3)"): s3.element_id("(1 3 2)"),
    }
    c = s3.element_id("(1 3 2)")
    m = morphisms.validate(s3, s3.mul(s3.mul(c, s3.inverse), s3.inverse[c]),
                           "anti-automorphism")
    assert not m.involutory and all(m.images[a] == b for a, b in pairs.items())
    with pytest.raises(SpecError, match="^the generator images extend to a "
                                            "non-involutory anti-automorphism$"):
        morphisms.tau_from_generator_images(s3, pairs)


def test_generator_images_missing_generator():
    s3 = get_group("S3")
    with pytest.raises(SpecError, match="no image given for generator"):
        morphisms.tau_from_generator_images(s3, {s3.generators[0]: 0})


def test_generator_images_identity_generator_needs_identity_image():
    # an identity generator is no move of the search tree, so its given
    # image is checked against what its word gives
    s3 = groups._permutation_group([(0, 1, 2), (1, 0, 2), (1, 2, 0)], 3)
    assert s3.generators[0] == 0
    pairs = {s: int(s3.inverse[s]) for s in s3.generators}
    assert np.array_equal(morphisms.tau_from_generator_images(s3, pairs).images, s3.inverse)
    pairs[0] = s3.element_id("(1 2)")
    with pytest.raises(SpecError, match="generator e is given image"):
        morphisms.tau_from_generator_images(s3, pairs)
    assert _bfs_generator_images(s3, pairs) is None


def test_generator_images_conflicting_are_refused():
    s3 = get_group("S3")
    pairs = {
        s3.element_id("(1 2)"): s3.element_id("(1 2 3)"),
        s3.element_id("(1 2 3)"): s3.element_id("(1 2 3)"),
    }
    with pytest.raises(SpecError, match="not a permutation of element ids"):
        morphisms.tau_from_generator_images(s3, pairs)
    assert _bfs_generator_images(s3, pairs) is None
    # a generator and its inverse, both given: the tree moves by each one's
    # own image, and validation refuses images that are not each other's inverse
    z5 = groups._permutation_group([(1, 2, 3, 4, 0), (4, 0, 1, 2, 3)], 5)
    c, c_inv = z5.generators
    assert z5.inverse[c] == c_inv
    images = morphisms.tau_from_generator_images(z5, {c: c, c_inv: c_inv}).images
    assert np.array_equal(images, np.arange(5))
    with pytest.raises(SpecError, match="not a permutation of element ids"):
        morphisms.tau_from_generator_images(z5, {c: c, c_inv: c})
    assert _bfs_generator_images(z5, {c: c, c_inv: c}) is None


# -- generator images against the breadth-first oracle ---------------------------

def _bfs_generator_images(G, pairs):
    """The extension as a breadth-first search over the generators, one
    product per Cayley edge: images(w*s) = pairs[s]*images(w), and two words
    for one element must give one image.  None when they do not."""
    images = -np.ones(G.order, dtype=np.int64)
    images[0] = 0
    frontier = [0]
    while frontier:
        new = []
        for w in frontier:
            iw = int(images[w])
            for s in G.generators:
                x = G.mul(w, s)
                cand = G.mul(int(pairs[s]), iw)
                if images[x] < 0:
                    images[x] = cand
                    new.append(x)
                elif images[x] != cand:
                    return None
        frontier = new
    assert (images >= 0).all()
    return images


def _involutory_inner_twists(G):
    """Every distinct g -> g0*g^-1*g0^-1 with g0^2 central."""
    ids = np.arange(G.order)
    central = {z for z in range(G.order) if np.array_equal(G.mul(z, ids), G.mul(ids, z))}
    seen = {}
    for g0 in range(G.order):
        if G.mul(g0, g0) in central:
            m = morphisms.tau_inner(G, g0)
            seen.setdefault(m.images.tobytes(), m)
    return list(seen.values())


# "no-table" runs the group retraced: the same ids over another search tree
@pytest.mark.parametrize("retrace", [False, True], ids=["table", "no-table"])
@pytest.mark.parametrize("name", battery_names())
def test_generator_images_match_bfs_oracle(name, retrace):
    """Every battery twist and involutory inner twist, given by its generator
    images, extends to itself, as the breadth-first oracle extends it,
    whichever search tree carries the extension."""
    g = get_group(name)
    taus = [tau.images for _, tau in available_taus(g)]
    taus += [tau.images for tau in _involutory_inner_twists(g)]
    if retrace:
        g = retraced(g)
    for images in taus:
        pairs = {s: int(images[s]) for s in g.generators}
        m = morphisms.tau_from_generator_images(g, pairs)
        assert np.array_equal(m.images, images)
        assert np.array_equal(_bfs_generator_images(g, pairs), images)


@pytest.mark.parametrize("name", battery_names())
def test_tau_properties_across_battery(name):
    g = get_group(name)
    for _, tau in available_taus(g):
        assert tau.images[0] == 0
        # image of the inverse is the inverse of the image
        assert np.array_equal(tau.images[g.inverse], g.inverse[tau.images])


def test_commuting_anti_maps_compose_to_automorphism():
    cl3 = get_group("CL3")
    t1 = morphisms.tau_clifford(cl3)
    t2 = morphisms.tau_inverse(cl3)
    assert np.array_equal(t1.images[t2.images], t2.images[t1.images])  # they commute
    comp = morphisms.validate(cl3, t1.images[t2.images], "automorphism")
    assert comp.involutory


# -- the generator check against the |G|^2 oracle -------------------------------

KINDS = ("automorphism", "anti-automorphism")


def _oracle_violations(G, images, kind):
    """The full table comparison: True at (a, b) where the law fails."""
    t = mul_table(G)
    lhs = images[t]
    m = t[np.ix_(images, images)]
    rhs = m if kind == "automorphism" else m.T
    return lhs != rhs


def _assert_matches_oracle(G, images):
    """validate accepts exactly what the oracle accepts, for both kinds, and
    every rejection names a pair at which the law really fails."""
    images = np.asarray(images, dtype=np.int64)
    rejected = 0
    for kind in KINDS:
        bad = _oracle_violations(G, images, kind)
        try:
            morphisms.validate(G, images, kind)
        except SpecError as exc:
            a, b = morphisms._check_hom(G, images, kind)
            assert f"law fails at witness ({G.label(a)}, {G.label(b)})" in str(exc)
            assert bad[a, b], (kind, G.label(a), G.label(b))
            rejected += 1
        else:
            assert not bad.any(), kind
    return rejected


def _s4_wr_z2():
    gens = ["(1 2)", "(1 2 3 4)", "(1 5)(2 6)(3 7)(4 8)"]
    return groups._permutation_group([groups.parse_cycles(c, 8) for c in gens], 8)


def _random_maps(G, seed, count):
    """Seeded identity-fixing bijections, and valid maps with two images swapped."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    for valid in (G.inverse.astype(np.int64), np.arange(G.order)):
        for _ in range(count):
            a, b = 1 + rng.choice(G.order - 1, size=2, replace=False)
            near = valid.copy()
            near[[a, b]] = near[[b, a]]
            yield near


@pytest.mark.parametrize("name", battery_names())
def test_generator_check_matches_oracle_on_battery(name):
    g = get_group(name)
    for _, tau in available_taus(g):
        _assert_matches_oracle(g, tau.images)
    inv = g.inverse.astype(np.int64)
    for x in range(g.order):
        # an inner automorphism, and inversion after it (an anti-automorphism)
        _assert_matches_oracle(g, g.conj_map(x))
        _assert_matches_oracle(g, inv[g.conj_map(x)])
    if not g.is_abelian():
        assert _assert_matches_oracle(g, g.inverse) == 1  # automorphism refused
    rejected = sum(_assert_matches_oracle(g, m) for m in _random_maps(g, len(name), 4))
    assert rejected or g.order < 8  # tiny groups have few non-maps to draw


def test_generator_check_matches_oracle_on_s4_wr_z2():
    g = _s4_wr_z2()
    assert g.order == 1152
    _assert_matches_oracle(g, g.inverse)
    c = g.element_id("(1 5)(2 6)(3 7)(4 8)")
    _assert_matches_oracle(g, morphisms.tau_inner(g, c).images)
    _assert_matches_oracle(g, g.conj_map(g.element_id("(1 2 3 4)")))
    for images in _random_maps(g, 11, 2):
        assert _assert_matches_oracle(g, images) >= 1

"""Checks of the paper's statements that no command runs, kept as test oracles.

Each one computes a quantity of the library by a second route and asserts
the two agree: group axioms, subgroups closed level by level, checked by
the greedy span and taken as groups of their own, the laws of
permutations, signed subsets, affine pairs and quaternions one product at a
time and the tuple closure the builds are held to, induction and
restriction with Frobenius reciprocity, the index-two branching of Clifford
theory, the twisted Burnside count, the pair-orbit scan on the whole |G|^2
grid, the character table from a general eigensolver, and the classical
indicators from the squares.  Class functions are arrays of class values,
indexed like ``conjugacy_classes(group).representatives``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from taumackey import DEFAULT_SEED, characters
from taumackey._kernels import orbit_labels, orbit_representatives
from taumackey.characters import INT_TOL, CharacterTable, compute_character_table
from taumackey.conjugacy import PairOrbitScan, conjugacy_classes
from taumackey.errors import MathCheckError, SpecError
from taumackey.groups import GroupTable, construct_semidirect_with_involution
from taumackey.morphisms import GroupMap

# Light's test reads the whole product table up to this order; above it,
# associativity is sampled
LIGHT_CAP = 1024
ASSOC_TRIPLES = 20_000
ASSOC_SEED = 0


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def conj_map(G: GroupTable, s) -> np.ndarray:
    """x -> s*x*s^-1 as two products, s*x and then (s*x)*s^-1: the first
    walks every element's word, where GroupTable.conj_map walks s's."""
    return G.mul(G.mul(s, np.arange(G.order)), G.inverse[s])


def mul_table(G: GroupTable) -> np.ndarray:
    """The order x order table of G.mul, for tests that read products by
    row and column."""
    ids = np.arange(G.order)
    return G.mul(ids[:, None], ids)


def retraced(G: GroupTable) -> GroupTable:
    """G over another Cayley search tree: the same ids, law and labels, but
    generated by the inverses of its generators in reverse order, so the
    search tries its moves in another order and may pick other words."""
    gens = [int(G.inverse[s]) for s in reversed(G.generators)]
    columns = G.mul(np.arange(G.order)[None, :], np.array(gens, dtype=np.int64)[:, None])
    return GroupTable(G.order, G.label, gens, G.family_tag, columns, elements=G.elements,
                      find=G._find, meta=G.meta)


def verify_group_axioms(G: GroupTable) -> dict:
    """Check associativity, identity, inverses, and generator closure.

    Up to LIGHT_CAP, associativity is exact by Light's test on the table of
    G.mul: (x*s)*y = x*(s*y) for every generator s and all x, y (Clifford &
    Preston, The Algebraic Theory of Semigroups, vol. 1).  The elements a
    with (x*a)*y = x*(a*y) for all x, y are closed under products, so once
    the generators reach every element the law holds for all triples.
    Above it, the test would form |S|*n^2 products (about 50M for S7), so
    ASSOC_TRIPLES seeded random triples are checked instead.  Raises
    SpecError on any violation; returns a report of what was checked.
    """
    n = G.order
    idx = np.arange(n, dtype=np.int64)
    if n <= LIGHT_CAP:
        t = mul_table(G)
        if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
            raise SpecError("identity axiom failed")
        if not (t[idx, G.inverse[idx]] == 0).all():
            raise SpecError("inverse axiom failed")
        for s in G.generators:
            if not np.array_equal(t[t[:, s]], t[:, t[s]]):
                raise SpecError(f"associativity failed at generator {G.label(s)}")
        exhaustive = True
        checked = len(G.generators) * n * n
    else:
        rng = np.random.default_rng(ASSOC_SEED)
        exhaustive = False
        checked = ASSOC_TRIPLES
        a, b, c = rng.integers(0, n, size=(checked, 3)).T
        if not np.array_equal(G.mul(G.mul(a, b), c), G.mul(a, G.mul(b, c))):
            raise SpecError("associativity failed on a sampled triple")
        if not (np.array_equal(G.mul(idx, 0), idx) and np.array_equal(G.mul(0, idx), idx)
                and (G.mul(idx, G.inverse) == 0).all()):
            raise SpecError("identity/inverse axiom failed")
    reached = len(subgroup_closure(G, G.generators))
    if reached != n:
        raise SpecError(f"generators reach {reached} of {n} elements")
    return {"order": n, "associativity_exhaustive": exhaustive, "triples": checked}


def subgroup_closure(G: GroupTable, gen_ids) -> np.ndarray:
    """Sorted ids of the subgroup generated by gen_ids, by a breadth-first
    search one Cayley-graph level at a time."""
    gens = np.array([int(g) for g in gen_ids], dtype=np.int64)
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        new = np.unique(G.mul(frontier[:, None], gens))
        frontier = new[~seen[new]]
        seen[frontier] = True
    return np.flatnonzero(seen)


def check_subgroup(G: GroupTable, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate that ids form a subgroup K; returns (sorted ids, generators).

    Each generator is the smallest member not yet in the span of the ones
    before it, so each at least doubles the span: at most log2|K| of them,
    found in about |K|*log|K| products.  The set is refused as soon as the
    span leaves it, and a span that reaches every member proves it a
    subgroup.
    """
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    if len(ids) == 0 or ids[0] != 0:
        raise SpecError("subgroup must contain the identity (id 0)")
    member = np.zeros(G.order, dtype=bool)
    member[ids] = True
    spanned = np.zeros(G.order, dtype=bool)
    spanned[0] = True
    gens = np.zeros(0, dtype=np.int64)
    while (rest := ids[~spanned[ids]]).size:
        gens = np.append(gens, rest[0])
        # the span is closed under the earlier generators: multiply it by the
        # new one, then every element it adds by all of them
        found = G.mul(ids[spanned[ids]], gens[-1])
        while (found := np.unique(found[~spanned[found]])).size:
            if not member[found].all():
                raise SpecError("set is not closed under multiplication")
            spanned[found] = True
            found = G.mul(found[:, None], gens).ravel()
    return ids, gens


def subgroup_table(G: GroupTable, ids: np.ndarray) -> tuple[GroupTable, np.ndarray]:
    """Reindex a subgroup as its own GroupTable; returns (table, embedding).
    Its generators are those of check_subgroup, renumbered."""
    ids, gens = check_subgroup(G, ids)
    pos = -np.ones(G.order, dtype=np.int64)
    pos[ids] = np.arange(len(ids))
    sub = GroupTable(
        len(ids),
        lambda a: G.label(ids[a]),
        pos[gens].tolist(),
        f"subgroup({G.family_tag})",
        pos[G.mul(ids[None, :], gens[:, None])],  # row i: x -> x*gens[i]
    )
    return sub, ids


# ---------------------------------------------------------------------------
# elements one product at a time: the laws the numpy closures are held to
# ---------------------------------------------------------------------------

def perm_compose(p: tuple, q: tuple) -> tuple:
    """(p*q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def subset_inversions(a: int, b: int) -> int:
    """Number of pairs (x, y) in A x B with x > y, subsets as bitmasks."""
    count = 0
    rest = b
    while rest:
        low = rest & -rest
        pos = low.bit_length()  # point index of this bit is pos (1-based)
        count += bin(a >> pos).count("1")
        rest ^= low
    return count


def clifford_mul(x: tuple, y: tuple) -> tuple:
    """Signed-subset product of pairs (sign, subset): signs multiply,
    inversion pairs flip the sign, subsets combine by symmetric difference."""
    (s1, a), (s2, b) = x, y
    s = s1 * s2 * (-1) ** (subset_inversions(a, b) & 1)
    return (s, a ^ b)


def affine_compose(p: tuple, q: tuple, n: int) -> tuple:
    """The affine pair of p*q, with (a, b) the map i -> (-1)^b * i + a of
    Z/n, read as permutations compose: (p*q)(i) = p(q(i))."""
    (a1, b1), (a2, b2) = p, q
    return ((a1 - a2 if b1 else a1 + a2) % n, b1 ^ b2)


# Q8 as pairs (sign, k) of a signed basis element 1, i, j, k; the product of
# basis elements a and b is QUAT_BASIS[a][b]
QUAT_BASIS = [
    [(1, 0), (1, 1), (1, 2), (1, 3)],
    [(1, 1), (-1, 0), (1, 3), (-1, 2)],
    [(1, 2), (-1, 3), (-1, 0), (1, 1)],
    [(1, 3), (1, 2), (-1, 1), (-1, 0)],
]


def quat_mul(x: tuple, y: tuple) -> tuple:
    s, k = QUAT_BASIS[x[1]][y[1]]
    return (x[0] * y[0] * s, k)


def quat_label(x: tuple) -> str:
    return ("-" if x[0] < 0 else "") + "1ijk"[x[1]]


def tuple_closure(identity: tuple, gens: list, compose) -> tuple[list, np.ndarray]:
    """The breadth-first closure of tuples from ``identity`` under right
    multiplication by ``gens``, one element and generator at a time, each
    new element taking the next id in order of first hit.  Returns
    (elements by id, the (k, order) columns x -> x*s)."""
    elements, index, right = [identity], {identity: 0}, []
    for x in elements:          # the list grows as it is read, in id order
        for s in gens:
            y = compose(x, s)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
            right.append(index[y])
    return elements, np.array(right, dtype=np.int64).reshape(len(elements), -1).T


# ---------------------------------------------------------------------------
# twisted Burnside count
# ---------------------------------------------------------------------------

@dataclass
class TwistedOrbitCount:
    fixed_orbit_count: int
    averaged_count: int
    orbit_count: int
    per_element_matches_sum: int


def twisted_orbit_count(
    G: GroupTable, n_points: int, gen_images: dict[int, np.ndarray], alpha
) -> TwistedOrbitCount:
    """Count orbits globally fixed by alpha, two independent ways.

    The action is given by generator images on 0..n_points-1; alpha must
    commute with it.  Route one averages |{x: g.x = alpha(x)}| over the
    group; route two enumerates orbits directly; they are asserted equal.
    Images that are not permutations, or that satisfy no action of G,
    raise SpecError.
    """
    points = np.arange(n_points)

    def permutation(what, m):
        m = np.asarray(m, dtype=np.int64)
        if m.shape != (n_points,) or not np.array_equal(np.sort(m), points):
            raise SpecError(f"{what} is not a permutation of 0..{n_points - 1}")
        return m

    alpha = permutation("alpha", alpha)
    gens = list(G.generators)
    for s in gens:
        if s not in gen_images:
            raise SpecError(f"no action image for generator {G.label(s)}")
    moves = np.stack([permutation(f"the image of {G.label(s)}", gen_images[s])
                      for s in gens])
    for s, m in zip(gens, moves):
        assert np.array_equal(alpha[m], m[alpha]), \
            f"alpha does not commute with the image of {G.label(s)}"

    # route one: the permutation of every group element along its Cayley
    # word, then the average of the match counts.  The words follow one
    # search tree, so perm(g*s) = perm(g) after the image of s is checked
    # for every g and s: that proves the images define an action.
    perms = G.along_words(points, moves, lambda perm, m: perm[..., m])
    ids = np.arange(G.order)
    for s, m in zip(gens, moves):
        if not np.array_equal(perms[G.mul(ids, s)], perms[:, m]):
            raise SpecError(f"the images do not define an action: {G.label(s)} fails")
    match_sum = int((perms == alpha[None, :]).sum())
    assert match_sum % G.order == 0, \
        f"match average {match_sum}/{G.order} is not an integer"
    averaged = match_sum // G.order

    # route two: direct orbit enumeration plus the alpha-invariance test
    labels = orbit_labels(moves)
    reps = orbit_representatives(labels)
    fixed = int(np.sum(labels[alpha[reps]] == reps))
    if fixed != averaged:
        raise MathCheckError(
            f"averaged fixed-orbit count {averaged} != enumerated count {fixed}"
        )
    return TwistedOrbitCount(fixed, averaged, len(reps), match_sum)


def full_pair_scan(G: GroupTable, tau: GroupMap) -> PairOrbitScan:
    """The orbits of G conjugating G x G, and how many tau fixes, labelled
    on the whole |G|^2 grid: state a*|G| + b is the pair (a, b), and each
    generator moves both coordinates by its conjugation map."""
    cmaps = G.generator_conj_maps()
    labels = orbit_labels(np.stack([cmaps, cmaps], axis=1))
    reps = orbit_representatives(labels)
    a, b = np.divmod(reps, G.order)
    tau_pairs = tau.images[a] * G.order + tau.images[b]
    invariant = int(np.sum(labels[tau_pairs] == reps))
    return PairOrbitScan(2, len(reps), invariant)


# ---------------------------------------------------------------------------
# character tables
# ---------------------------------------------------------------------------

def eig_character_table(G: GroupTable, seed: int | None = None) -> CharacterTable:
    """The table from the general non-symmetric eigensolver: M = sum_i r_i A_i
    for a real random r, diagonalized by np.linalg.eig without the similarity
    that makes it Hermitian; the eigenvalues may be complex, so the gap is
    taken over every pair.  Rows come in the library's order."""
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    conj = conjugacy_classes(G)
    k = conj.class_count
    cells, counts = characters._class_matrices(G, conj)
    i, jm = np.divmod(cells, k * k)
    sizes = conj.class_sizes.astype(float)
    upper_i, upper_j = np.triu_indices(k, 1)
    for _ in range(characters.MAX_EIG_RETRIES):
        M = characters._class_combination(i, jm, counts, rng.standard_normal(k))
        eigvals, eigvecs = np.linalg.eig(M)
        scale = max(1.0, float(np.abs(eigvals).max()))
        if k > 1 and np.abs(eigvals[upper_i] - eigvals[upper_j]).min() < characters.EIG_GAP * scale:
            continue
        omegas = eigvecs / eigvecs[0]
        degs = np.sqrt(G.order / np.sum(np.abs(omegas) ** 2 / sizes[:, None], axis=0))
        X = (degs[None, :] * omegas / sizes[:, None]).T
        degrees = np.round(degs.real).astype(np.int64)
        assert np.abs(degs - degrees).max() <= INT_TOL
        gram = (X * conj.class_sizes) @ X.conj().T / G.order
        orth = float(np.abs(gram - np.eye(k)).max())
        keys = -np.round(np.stack([X.real, X.imag], axis=2), 6).reshape(k, 2 * k)
        order = np.lexsort((*keys.T[::-1], degrees))
        return CharacterTable(G, conj, X[order], degrees[order], orth,
                              float(np.abs(degs - degrees).max()))
    raise AssertionError("no eigenvalue gap")


def fs_indicators(table: CharacterTable) -> np.ndarray:
    """Classical Frobenius-Schur indicators (1/|G|) sum of chi(g^2), read
    off the squares g*g: 1 real, 0 complex, -1 quaternionic."""
    G = table.group
    ids = np.arange(G.order)
    raw = table.values[:, table.conj.class_of[G.mul(ids, ids)]].sum(axis=1) / G.order
    rounded = np.round(raw.real).astype(np.int64)
    assert np.abs(raw - rounded).max() < INT_TOL, "indicator is not an integer"
    return rounded


# ---------------------------------------------------------------------------
# induction / restriction
# ---------------------------------------------------------------------------

def restricted_character(
    G: GroupTable, f: np.ndarray, sub: GroupTable, embedding: np.ndarray
) -> np.ndarray:
    """Restriction of a class function of G along an embedding produced by
    subgroup_table."""
    reps_in_g = embedding[conjugacy_classes(sub).representatives]
    return f[conjugacy_classes(G).class_of[reps_in_g]]


def induced_character(
    table: CharacterTable, sub: GroupTable, embedding: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """Induce a class function of a subgroup up to G.

    Ind f(r) = |C_G(r)| / |K| * sum of f over r^G n K (Isaacs 5.1-5.2), read
    off one count of K's elements by (G-class, K-class); Frobenius
    reciprocity against every table row is asserted before returning.
    """
    G = table.group
    conj_g = table.conj
    conj_k = conjugacy_classes(sub)
    k_g, k_k = conj_g.class_count, conj_k.class_count
    assert f.shape == (k_k,), "class function does not live on the subgroup"
    fuse = np.bincount(
        conj_g.class_of[embedding] * k_k + conj_k.class_of, minlength=k_g * k_k
    ).reshape(k_g, k_k)
    centralizers = conj_g.centralizer_order[conj_g.representatives]
    values = centralizers * (fuse @ f) / len(embedding)
    # <Ind f, chi> = <f, Res chi> for every row chi
    lhs = table.values.conj() @ (conj_g.class_sizes * values) / G.order
    restricted = table.values[:, conj_g.class_of[embedding[conj_k.representatives]]]
    rhs = restricted.conj() @ (conj_k.class_sizes * f) / sub.order
    bad = np.flatnonzero(np.abs(lhs - rhs) > 1e-8)
    if bad.size:
        i = bad[0]
        raise MathCheckError(
            f"Frobenius reciprocity fails on row {i}: {lhs[i]} vs {rhs[i]}"
        )
    return values


def find_row(table: CharacterTable, f: np.ndarray, tol: float = INT_TOL) -> int:
    """Index of the unique row equal to the class values f within tol."""
    diffs = np.abs(table.values - f[None, :]).max(axis=1)
    j = int(diffs.argmin())
    assert diffs[j] <= tol, f"no table row within {tol} (best {diffs[j]:.3g})"
    return j


# ---------------------------------------------------------------------------
# index-two extension bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class ExtensionCase:
    sigma_row: int
    case: int                     # 1: induces irreducibly, 2: splits in two
    extension_rows: tuple[int, ...]
    conjugate_partner_row: int | None = None    # case 1: the row of sigma^h


@dataclass
class ExtensionReport:
    base: GroupTable
    extension: GroupTable
    cases: list[ExtensionCase] = field(default_factory=list)


def clifford_theory_check(
    N: GroupTable, tau: GroupMap, seed: int | None = None
) -> ExtensionReport:
    """Induce every irreducible of N to the order-2 extension built from tau
    and verify that exactly one of the two index-two branching patterns holds.

    Case 1: the induced character is irreducible, restricts to sigma plus its
    h-conjugate, and those are inequivalent.  Case 2: induction splits as
    theta plus theta tensor the order-two sign character, both restricting
    back to sigma.
    """
    G = construct_semidirect_with_involution(N, tau)
    table_n = compute_character_table(N, seed)
    table_g = compute_character_table(G, seed)
    n = N.order
    h = n  # the pair (1, 1)
    conj_g = table_g.conj
    conj_n = table_n.conj
    embedding = np.arange(n, dtype=np.int64)
    sign = np.where(conj_g.representatives < n, 1.0, -1.0).astype(complex)
    report = ExtensionReport(N, G)
    for i in range(table_n.class_count):
        sigma = table_n.values[i]
        induced = induced_character(table_g, N, embedding, sigma)
        norm = complex(np.sum(conj_g.class_sizes * induced * induced.conj()) / G.order)
        assert abs(norm - round(norm.real)) <= INT_TOL, f"norm of induced row {i} not integral"
        norm = int(round(norm.real))
        # sigma^h(x) = sigma(h^-1 x h), computed inside the extension
        hx = G.mul(G.mul(h, conj_n.representatives), h)
        sigma_h = sigma[conj_n.class_of[hx]]
        res_ind = restricted_character(G, induced, N, embedding)
        if norm == 1:
            j = find_row(table_g, induced)
            assert find_row(table_g, table_g.values[j] * sign) == j, \
                f"irreducible induction of row {i} is moved by the sign twist"
            assert np.abs(res_ind - (sigma + sigma_h)).max() <= INT_TOL, \
                f"restriction of induced row {i} is not sigma + sigma^h"
            assert np.abs(sigma - sigma_h).max() >= INT_TOL, \
                f"row {i}: induced irreducibly but sigma^h = sigma"
            partner = find_row(table_n, sigma_h)
            report.cases.append(ExtensionCase(i, 1, (j,), partner))
        elif norm == 2:
            mults = table_g.decompose(induced, f"induced row {i}")
            rows = np.flatnonzero(mults)
            assert len(rows) == 2 and set(mults[rows]) == {1}, \
                f"induced row {i} does not split into two distinct rows"
            t1, t2 = (int(r) for r in rows)
            assert find_row(table_g, table_g.values[t1] * sign) == t2, \
                f"rows {t1}, {t2} are not a sign-twist pair"
            for r in (t1, t2):
                res = restricted_character(G, table_g.values[r], N, embedding)
                assert np.abs(res - sigma).max() <= INT_TOL, \
                    f"row {r} of the extension does not restrict to row {i}"
            report.cases.append(ExtensionCase(i, 2, (t1, t2)))
        else:
            raise AssertionError(f"induced row {i} has norm {norm}, expected 1 or 2")
    return report

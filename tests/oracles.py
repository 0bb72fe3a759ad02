"""Checks of the paper's statements that no command runs, kept as test oracles.

Each one computes a quantity of the library by a second route and asserts
the two agree: group axioms, subgroups as groups of their own, induction and
restriction with Frobenius reciprocity, the index-two branching of Clifford
theory, and the twisted Burnside count.  Class functions are arrays of
class values, indexed like ``conjugacy_classes(group).representatives``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from taumackey._kernels import orbit_labels, orbit_representatives
from taumackey.characters import INT_TOL, CharacterTable, compute_character_table
from taumackey.conjugacy import conjugacy_classes
from taumackey.errors import CrossCheckFailed, InvalidMap, NonGroup
from taumackey.groups import (
    GroupTable,
    check_subgroup,
    construct_semidirect_with_involution,
    subgroup_closure,
)
from taumackey.morphisms import GroupMap

# sampled associativity for groups without a dense table
ASSOC_TRIPLES = 20_000
ASSOC_SEED = 0


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def verify_group_axioms(G: GroupTable) -> dict:
    """Check associativity, identity, inverses, and generator closure.

    With a dense table, associativity is exact by Light's test: (x*s)*y =
    x*(s*y) for every generator s and all x, y (Clifford & Preston, The
    Algebraic Theory of Semigroups, vol. 1).  The elements a with
    (x*a)*y = x*(a*y) for all x, y are closed under products, so once the
    generators reach every element the law holds for all triples.  Without
    a table, the same test would walk |S|*n^2 Cayley words (about 50M for
    S7), so ASSOC_TRIPLES seeded random triples are checked instead.
    Raises NonGroup on any violation; returns a report of what was checked.
    """
    n = G.order
    idx = np.arange(n, dtype=np.int64)
    if G.table is not None:
        t = G.table
        if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
            raise NonGroup("identity axiom failed")
        if not (t[idx, G.inverse[idx]] == 0).all():
            raise NonGroup("inverse axiom failed")
        for s in G.generators:
            if not np.array_equal(t[t[:, s]], t[:, t[s]]):
                raise NonGroup(f"associativity failed at generator {G.label(s)}")
        exhaustive = True
        checked = len(G.generators) * n * n
    else:
        rng = np.random.default_rng(ASSOC_SEED)
        exhaustive = False
        checked = ASSOC_TRIPLES
        a, b, c = rng.integers(0, n, size=(checked, 3)).T
        if not np.array_equal(G.mul(G.mul(a, b), c), G.mul(a, G.mul(b, c))):
            raise NonGroup("associativity failed on a sampled triple")
        if not (np.array_equal(G.mul(idx, 0), idx) and np.array_equal(G.mul(0, idx), idx)
                and (G.mul(idx, G.inverse) == 0).all()):
            raise NonGroup("identity/inverse axiom failed")
    reached = len(subgroup_closure(G, G.generators))
    if reached != n:
        raise NonGroup(f"generators reach {reached} of {n} elements")
    return {"order": n, "associativity_exhaustive": exhaustive, "triples": checked}


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
    raise InvalidMap.
    """
    points = np.arange(n_points)

    def permutation(what, m):
        m = np.asarray(m, dtype=np.int64)
        if m.shape != (n_points,) or not np.array_equal(np.sort(m), points):
            raise InvalidMap(f"{what} is not a permutation of 0..{n_points - 1}")
        return m

    alpha = permutation("alpha", alpha)
    gens = list(G.generators)
    for s in gens:
        if s not in gen_images:
            raise InvalidMap(f"no action image for generator {G.label(s)}")
    moves = np.stack([permutation(f"the image of {G.label(s)}", gen_images[s])
                      for s in gens])
    for s, m in zip(gens, moves):
        assert np.array_equal(alpha[m], m[alpha]), \
            f"alpha does not commute with the image of {G.label(s)}"

    # route one: the permutation of every group element along its Cayley
    # word, then the average of the match counts.  The words follow one
    # search tree, so perm(g*s) = perm(g) after the image of s is checked
    # for every g and s: that proves the images define an action.
    perms = G.along_words(points, moves, lambda perm, m: perm[m])
    ids = np.arange(G.order)
    for s, m in zip(gens, moves):
        if not np.array_equal(perms[G.mul(ids, s)], perms[:, m]):
            raise InvalidMap(f"the images do not define an action: {G.label(s)} fails")
    match_sum = int((perms == alpha[None, :]).sum())
    assert match_sum % G.order == 0, \
        f"match average {match_sum}/{G.order} is not an integer"
    averaged = match_sum // G.order

    # route two: direct orbit enumeration plus the alpha-invariance test
    labels = orbit_labels(moves)
    reps = orbit_representatives(labels)
    fixed = int(np.sum(labels[alpha[reps]] == reps))
    if fixed != averaged:
        raise CrossCheckFailed(
            f"averaged fixed-orbit count {averaged} != enumerated count {fixed}"
        )
    return TwistedOrbitCount(fixed, averaged, len(reps), match_sum)


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
        raise CrossCheckFailed(
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
    h = G.meta["h"]
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

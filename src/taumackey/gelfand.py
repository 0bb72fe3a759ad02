"""Homogeneous spaces G/K: symmetry criteria, spherical functions, and the
twisted indicator identities on Gelfand pairs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import CLASS_CAP, PAIR_BUDGET
from ._kernels import orbit_labels, orbit_representatives
from .characters import (
    INT_TOL,
    CharacterTable,
    compute_character_table,
    tau_row_permutation,
    twisted_fs_indicators,
)
from .conjugacy import conjugacy_classes
from .errors import BudgetExceeded, MathCheckError, SpecError
from .groups import GroupTable, spanning_generators
from .morphisms import GroupMap


@dataclass(frozen=True)
class CosetSpace:
    """Left cosets xK of K in G; point 0 is K.  G acts through ``rows``; the
    K-orbits and the permutation character are read-only arrays computed by
    build_coset_space."""

    group: GroupTable
    subgroup: np.ndarray       # sorted element ids of K
    generators: np.ndarray     # the ids K was given by; K is their span
    size: int                  # |X| = |G| / |K|
    reps: np.ndarray           # minimal element id per point
    point_of: np.ndarray       # element id -> its coset's point
    k_orbit_labels: np.ndarray  # minimal point per K-orbit
    permutation_character: np.ndarray  # fixed points per class, complex

    def rows(self, g) -> np.ndarray:
        """The points g.x of every point x, with one row per id of an id array."""
        return self.point_of[self.group.mul(np.asarray(g)[..., None], self.reps)]


def build_coset_space(G: GroupTable, generators) -> CosetSpace:
    """The space of K = <generators>.  The cosets xK are the orbits of
    x -> x*s, s a generator, so one kernel call labels each with its
    minimal element, as conjugacy_classes labels the classes, and K is the
    identity's coset.  By Lagrange every coset has |K| elements, which is
    asserted on the labels.

    The permutation character is the induced trivial character (Isaacs
    5.1-5.2): g fixes |C_G(g)| * |g^G n K| / |K| cosets, one count of K's
    classes in G; each quotient is asserted exact.
    """
    gens = np.array([int(g) for g in generators], dtype=np.int64)
    labels = orbit_labels(G.mul(np.arange(G.order), gens[:, None]))
    reps = orbit_representatives(labels)
    point_of = np.searchsorted(reps, labels)
    K = np.flatnonzero(labels == 0)
    if not (np.bincount(point_of) == len(K)).all():
        raise MathCheckError("a coset of K does not have |K| elements")
    k_orbits = orbit_labels(point_of[G.mul(gens[:, None], reps)])
    conj = conjugacy_classes(G)
    meets = np.bincount(conj.class_of[K], minlength=conj.class_count)
    fixed, remainder = np.divmod(conj.centralizer_order[conj.representatives] * meets, len(K))
    if remainder.any():
        raise MathCheckError("fixed-point counts are not integers")
    perm = fixed.astype(complex)
    k_orbits.flags.writeable = perm.flags.writeable = False
    return CosetSpace(G, K, gens, len(reps), reps, point_of, k_orbits, perm)


# ---------------------------------------------------------------------------
# twisted product action on X x X
# ---------------------------------------------------------------------------

@dataclass
class OrbitAnalysis:
    """Orbits of the pair action (twist on the left factor, plain on the
    right), classified by flip symmetry, with one double-coset representative
    per orbit."""

    orbit_count: int
    m_symmetric: int              # orbits fixed by the coordinate flip
    m_antisymmetric: int
    hom_sym_dim: int
    hom_skew_dim: int
    coset_reps: np.ndarray        # minimal group element per orbit


def check_pair_budget(points: int, pair_budget: int) -> None:
    """Refuse a space of |X| points whose |X|^2 pair states exceed the budget;
    |X| = |G| / |K| is known before the space is built."""
    if points * points > pair_budget:
        raise BudgetExceeded(
            f"|X|^2 = {points * points} exceeds the pair budget {pair_budget}"
        )


def orbit_analysis(
    space: CosetSpace, tau: GroupMap, pair_budget: int = PAIR_BUDGET
) -> OrbitAnalysis:
    G = space.group
    X = space.size
    check_pair_budget(X, pair_budget)
    gens = np.array(G.generators, dtype=np.int64)
    left = space.rows(tau.images[G.inverse[gens]])   # tau-twisted action
    right = space.rows(gens)
    labels = orbit_labels(np.stack([left, right], axis=1))
    pair_reps = orbit_representatives(labels)
    x1, x2 = np.divmod(pair_reps, X)
    symmetric = labels[x2 * X + x1] == pair_reps
    m1 = int(symmetric.sum())
    m2 = int(len(pair_reps) - m1)
    if m2 % 2:
        raise MathCheckError(f"antisymmetric orbit count {m2} is odd")
    # every orbit meets {(base point, y)}; the first group element hitting an
    # orbit there is its double-coset representative
    label_of_s = labels[space.point_of]
    orbit_labels_sorted, first_s = np.unique(label_of_s, return_index=True)
    if not np.array_equal(orbit_labels_sorted, pair_reps):
        raise MathCheckError("double-coset representatives missed an orbit")
    return OrbitAnalysis(
        orbit_count=len(pair_reps),
        m_symmetric=m1,
        m_antisymmetric=m2,
        hom_sym_dim=m1 + m2 // 2,
        hom_skew_dim=m2 // 2,
        coset_reps=first_s.astype(np.int64),
    )


def double_coset_tau_invariant(
    space: CosetSpace, tau: GroupMap, reps: np.ndarray
) -> np.ndarray:
    """Per element s of reps: tau(s) in tau(K) s K.  That holds exactly when
    tau(s)K lies in the tau(K)-orbit of sK on X; tau(K) need not be K, and
    it is generated by the images of K's generators."""
    labels = orbit_labels(space.rows(tau.images[space.generators]))
    reps = np.asarray(reps, dtype=np.int64)
    points = space.point_of
    return labels[points[tau.images[reps]]] == labels[points[reps]]


def weak_symmetry_holds(space: CosetSpace, tau: GroupMap) -> bool:
    """g in K tau(g) K for every g.  That is KgK = K tau(g) K, which holds
    exactly when gK and tau(g)K lie in the same K-orbit on X."""
    labels = space.k_orbit_labels
    points = space.point_of
    return bool((labels[points] == labels[points[tau.images]]).all())


# ---------------------------------------------------------------------------
# the four equivalent symmetry conditions
# ---------------------------------------------------------------------------

@dataclass
class GelfandCriteria:
    gelfand: bool                      # permutation character multiplicity-free
    rank: int                          # number of K-orbits on X
    multiplicities: np.ndarray
    indicators: np.ndarray             # twisted indicator per table row
    hypothesis_holds: bool             # twisted permutation character = plain one
    weak_symmetry: bool
    subgroup_tau_invariant: bool
    cond_skew_dim_zero: bool           # (a)
    cond_orbits_symmetric: bool        # (b)
    cond_cosets_invariant: bool        # (c)
    cond_constituents_positive: bool   # (d)
    analysis: OrbitAnalysis


def gelfand_criteria_report(
    space: CosetSpace, tau: GroupMap, table: CharacterTable, pair_budget: int = PAIR_BUDGET
) -> GelfandCriteria:
    """Evaluate the four symmetry conditions independently; when the twisted
    permutation representation is equivalent to the plain one, their
    equivalence is asserted.  Facts are still reported when it is not.
    ``table`` is the character table of the space's group."""
    G = space.group
    if table.group is not G:
        raise SpecError("the table and the coset space belong to different groups")
    perm = space.permutation_character
    mults = table.decompose(perm, "permutation character")
    gelfand = bool((mults <= 1).all())
    constituents = np.flatnonzero(mults)
    rank = len(orbit_representatives(space.k_orbit_labels))
    norm = complex(np.sum(table.conj.class_sizes * perm * perm.conj()) / G.order)
    if abs(norm - round(norm.real)) > INT_TOL or round(norm.real) != int((mults**2).sum()):
        raise MathCheckError("permutation character norm disagrees with multiplicities")
    if int(round(norm.real)) != rank:
        raise MathCheckError(
            f"character norm {norm} disagrees with the orbit rank {rank}"
        )
    hypothesis = bool(np.abs(perm[table.conj.tau_class_image(tau)] - perm).max() < INT_TOL)
    analysis = orbit_analysis(space, tau, pair_budget)
    cond_a = analysis.hom_skew_dim == 0
    cond_b = analysis.m_antisymmetric == 0
    cond_c = bool(double_coset_tau_invariant(space, tau, analysis.coset_reps).all())
    indicators = twisted_fs_indicators(table, tau).values
    cond_d = gelfand and all(indicators[i] == 1 for i in constituents)
    weak = weak_symmetry_holds(space, tau)
    tau_k = bool(
        np.array_equal(np.unique(tau.images[space.subgroup]), space.subgroup)
    )
    conditions = (cond_a, cond_b, cond_c, cond_d)
    if hypothesis and len(set(conditions)) != 1:
        raise MathCheckError(
            f"equivalent conditions disagree under the hypothesis: {conditions}"
        )
    if weak:
        if not (tau_k and all(conditions)):
            raise MathCheckError(
                "weak symmetry holds but a symmetry condition fails"
            )
    return GelfandCriteria(
        gelfand=gelfand,
        rank=rank,
        multiplicities=mults,
        indicators=indicators,
        hypothesis_holds=hypothesis,
        weak_symmetry=weak,
        subgroup_tau_invariant=tau_k,
        cond_skew_dim_zero=cond_a,
        cond_orbits_symmetric=cond_b,
        cond_cosets_invariant=cond_c,
        cond_constituents_positive=cond_d,
        analysis=analysis,
    )


# ---------------------------------------------------------------------------
# spherical functions
# ---------------------------------------------------------------------------

@dataclass
class SphericalData:
    constituent_rows: np.ndarray
    values: np.ndarray            # (len(constituents), |X|)
    normalization_residual: float
    inversion_residual: float     # character recovered from the average
    orthogonality_residual: float


def spherical_functions(
    space: CosetSpace, table: CharacterTable, mults: np.ndarray
) -> SphericalData:
    """Averaged bi-K-invariant matrix coefficients of each constituent, with
    the normalization, inversion, and orthogonality identities checked.
    ``mults`` is the permutation character's decomposition in ``table``, as
    gelfand_criteria_report computes it on a Gelfand pair.  phi(K) is the
    multiplicity m of its constituent, so a pair that is not
    multiplicity-free fails the normalization check by m - 1 >= 1.

    Both directions read meets[c, x] = #{g in C_c : gK = x}: phi(x) is the
    mean of conj(chi) over the coset x, and as g runs over G, g^-1 r g
    covers the class of r |C_G(r)| times, so the inversion average of
    conj(phi) is d / |C| times its sum over the class's points."""
    constituents = np.flatnonzero(mults)
    conj = table.conj
    meets = np.bincount(
        conj.class_of * space.size + space.point_of,
        minlength=conj.class_count * space.size,
    ).reshape(conj.class_count, space.size)
    chi = table.values[constituents]
    phi = chi.conj() @ meets / len(space.subgroup)
    norm_res = float(np.abs(phi[:, 0] - 1).max())
    if norm_res > INT_TOL:
        raise MathCheckError(f"spherical normalization residual {norm_res:.3g}")
    inv_res = float(np.abs(phi - phi[:, space.k_orbit_labels]).max())
    if inv_res > INT_TOL:
        raise MathCheckError(f"spherical functions not K-orbit constant: {inv_res:.3g}")
    # recover each character from its spherical function
    degrees = table.degrees[constituents][:, None]
    recon = degrees * (phi.conj() @ meets.T) / conj.class_sizes
    recon_res = float(np.abs(recon - chi).max())
    orth = phi @ phi.conj().T / space.size
    expected = np.diag(1.0 / table.degrees[constituents].astype(float))
    orth_res = float(np.abs(orth - expected).max())
    if max(recon_res, orth_res) > INT_TOL:
        raise MathCheckError(
            f"spherical identities fail: inversion {recon_res:.3g}, "
            f"orthogonality {orth_res:.3g}"
        )
    return SphericalData(
        constituent_rows=constituents,
        values=phi,
        normalization_residual=norm_res,
        inversion_residual=recon_res,
        orthogonality_residual=orth_res,
    )


# ---------------------------------------------------------------------------
# twisted indicators on a Gelfand pair
# ---------------------------------------------------------------------------

@dataclass
class TwistedPairReport:
    spherical: SphericalData              # the spherical functions it checked
    indicator_values: np.ndarray          # per constituent
    averaged_indicator_residual: float    # identity (1)
    degree_sum_lhs: Fraction              # exact (1/|G|) sum counts^2
    degree_sum_rhs: Fraction              # exact |K| * sum 1/d over self-conj
    count_inversion_residual: float
    self_conjugate_constituents: int
    tau_invariant_k_orbits: int | None    # None when tau(K) != K


def twisted_fs_gelfand(
    space: CosetSpace, tau: GroupMap, table: CharacterTable, criteria: GelfandCriteria
) -> TwistedPairReport:
    """The two averaged identities for a multiplicity-free pair, plus the
    K-orbit count comparison when K is tau-invariant.  The twisted
    indicators and K's tau-invariance are read from ``criteria``, the
    report of gelfand_criteria_report on the same space, tau and table."""
    G = space.group
    sph = spherical_functions(space, table, criteria.multiplicities)
    constituents = sph.constituent_rows
    indicators = criteria.indicators
    twisted = G.mul(G.inverse[tau.images], np.arange(G.order))  # tau(g)^-1 g per g
    counts_x = np.bincount(space.point_of[twisted], minlength=space.size)

    # identity (1): averaging a spherical function over twisted squares gives
    # the indicator of its constituent
    averaged = table.degrees[constituents] * (sph.values @ counts_x) / G.order
    res1 = float(np.abs(averaged - indicators[constituents]).max())
    if res1 > INT_TOL:
        raise MathCheckError(f"averaged spherical indicator residual {res1:.3g}")

    # identity (2): exact rational comparison
    lhs = Fraction(int((counts_x.astype(object) ** 2).sum()), G.order)
    perm = tau_row_permutation(table, tau)
    self_conj = perm[constituents] == constituents
    rhs = Fraction(len(space.subgroup), 1) * sum(
        (Fraction(1, int(table.degrees[i]))
         for i in constituents[self_conj]),
        Fraction(0),
    )
    if lhs != rhs:
        raise MathCheckError(
            f"twisted point-count identity fails: {lhs} != {rhs}"
        )

    # spherical inversion of the point counts
    recon = len(space.subgroup) * (
        indicators[constituents].astype(complex) @ sph.values
    )
    res3 = float(np.abs(recon - counts_x).max())
    if res3 > INT_TOL:
        raise MathCheckError(f"point-count inversion residual {res3:.3g}")

    n_self = int(self_conj.sum())
    invariant_orbits = None
    if criteria.subgroup_tau_invariant:
        labels = space.k_orbit_labels
        reps = orbit_representatives(labels)
        tau_point = space.point_of[tau.images[space.reps]]
        invariant_orbits = int((labels[tau_point[reps]] == reps).sum())
        if invariant_orbits != n_self:
            raise MathCheckError(
                f"tau-invariant K-orbits {invariant_orbits} != "
                f"self-conjugate constituents {n_self}"
            )
        bad = constituents[self_conj & (indicators[constituents] != 1)].tolist()
        if bad:
            raise MathCheckError(
                f"self-conjugate constituents with indicator != 1: rows {bad}"
            )
    return TwistedPairReport(
        spherical=sph,
        indicator_values=indicators[constituents],
        averaged_indicator_residual=res1,
        degree_sum_lhs=lhs,
        degree_sum_rhs=rhs,
        count_inversion_residual=res3,
        self_conjugate_constituents=n_self,
        tau_invariant_k_orbits=invariant_orbits,
    )


# ---------------------------------------------------------------------------
# twisted-square conjugacy condition for an automorphism
# ---------------------------------------------------------------------------

@dataclass
class TwistedSquareConjugacy:
    holds: bool
    fixed_subgroup_order: int
    omega_size: int
    omega_classes_in_group: int
    omega_classes_in_fixed_subgroup: int
    gelfand: bool | None          # asserted when the automorphism is an involution
    rank: int | None


def fixed_subgroup(sigma: GroupMap) -> tuple[np.ndarray, np.ndarray]:
    """(sorted ids, generators) of the subgroup of points an automorphism
    fixes, spanned once.  The fixed points of an automorphism always form a
    subgroup, so a span that leaves them is a failed cross-check."""
    G = sigma.group
    fixed = sigma.images == np.arange(G.order)
    gens, spans = spanning_generators(G, fixed[None])
    if (spans & ~fixed).any():
        raise MathCheckError("the fixed points' generators span outside them")
    return np.flatnonzero(fixed), gens[0]


def condition_star(
    G: GroupTable, sigma: GroupMap, seed: int | None = None, class_cap: int = CLASS_CAP
) -> TwistedSquareConjugacy:
    """Whether group-level conjugacy of the twisted squares x sigma(x^-1)
    already implies conjugacy inside the fixed subgroup of sigma.  For an
    involutory sigma that condition forces (G, fixed subgroup) to be a
    Gelfand pair, which is asserted."""
    if sigma.kind != "automorphism":
        raise SpecError("need a validated automorphism")
    if sigma.group is not G:
        raise SpecError("automorphism lives on a different group")
    K, gens = fixed_subgroup(sigma)
    omega = np.unique(G.mul(np.arange(G.order), sigma.images[G.inverse]))
    conj = conjugacy_classes(G)
    in_g = len(np.unique(conj.class_of[omega]))
    labels = orbit_labels(G.conj_map(gens[:, None]))
    in_k = len(np.unique(labels[omega]))
    if in_k < in_g:
        raise MathCheckError(
            "fixed-subgroup conjugacy cannot be coarser than group conjugacy"
        )
    holds = in_k == in_g
    gelfand = None
    rank = None
    if sigma.involutory:
        table = compute_character_table(G, seed, class_cap)
        space = build_coset_space(G, gens)
        mults = table.decompose(space.permutation_character, "permutation character")
        gelfand = bool((mults <= 1).all())
        rank = len(orbit_representatives(space.k_orbit_labels))
        if holds and not gelfand:
            raise MathCheckError(
                "twisted-square condition holds for an involution but the "
                "pair is not Gelfand"
            )
    return TwistedSquareConjugacy(
        holds=holds,
        fixed_subgroup_order=len(K),
        omega_size=len(omega),
        omega_classes_in_group=in_g,
        omega_classes_in_fixed_subgroup=in_k,
        gelfand=gelfand,
        rank=rank,
    )

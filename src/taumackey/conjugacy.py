"""Conjugacy classes, twisted square-root counts, orbit scans, power sums."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import PAIR_BUDGET
from ._kernels import orbit_labels, orbit_representatives
from .errors import BudgetExceeded, MathCheckError, SpecError
from .groups import GroupTable, spanning_generators
from .morphisms import GroupMap

# Python's default int-to-str limit; the exact power sums must print within it.
SUM_DIGITS = 4300


def power_budget(order: int) -> int | None:
    """Largest power n that power_sum_report accepts for a group of this order.

    The sum of centralizer orders^n is at most order^(n+1), and the twisted
    sum does not exceed it; order^(n+1) has at most SUM_DIGITS digits when
    (n+1)*log10(order) <= SUM_DIGITS - 1.  The trivial group has no bound.
    """
    if order == 1:
        return None
    return int((SUM_DIGITS - 1) / math.log10(order)) - 1


@dataclass
class ConjugacyData:
    group: GroupTable
    class_of: np.ndarray          # element id -> class index
    representatives: np.ndarray   # minimal element id per class
    class_sizes: np.ndarray
    centralizer_order: np.ndarray  # per element

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    def tau_class_image(self, tau: GroupMap) -> np.ndarray:
        """Index of the class containing tau(class representative)."""
        return self.class_of[tau.images[self.representatives]]

    def tau_invariant_classes(self, tau: GroupMap) -> np.ndarray:
        return self.tau_class_image(tau) == np.arange(self.class_count)


def conjugacy_classes(G: GroupTable) -> ConjugacyData:
    """Classes sorted by minimal member id; cached on the group."""
    if "conjugacy" in G._caches:
        return G._caches["conjugacy"]
    labels = orbit_labels(G.generator_conj_maps())
    representatives = orbit_representatives(labels)
    class_of = np.searchsorted(representatives, labels)
    class_sizes = np.bincount(class_of)
    centralizer_order = (G.order // class_sizes)[class_of]
    data = ConjugacyData(G, class_of, representatives, class_sizes, centralizer_order)
    G._caches["conjugacy"] = data
    return data


def count_twisted_squares(G: GroupTable, tau: GroupMap) -> np.ndarray:
    """counts[g] = number of h with tau(h^-1)*h = g, int64 per element; for
    tau = inversion this is the square-root count of g."""
    if tau.group is not G or tau.kind != "anti-automorphism" or not tau.involutory:
        raise SpecError("need a validated involutory anti-automorphism of this group")
    n = G.order
    targets = G.mul(tau.images[G.inverse], np.arange(n))
    counts = np.bincount(targets, minlength=n).astype(np.int64)
    if counts.sum() != n:
        raise MathCheckError("twisted square counts do not sum to |G|")
    conj = conjugacy_classes(G)
    if not np.array_equal(counts, counts[conj.representatives][conj.class_of]):
        raise MathCheckError("twisted square counts are not constant on classes")
    return counts


@dataclass
class PairOrbitScan:
    n: int
    orbit_count: int
    tau_invariant_orbit_count: int


def simultaneous_conjugation_scan(
    G: GroupTable, n: int, tau: GroupMap, pair_budget: int = PAIR_BUDGET
) -> PairOrbitScan:
    """Orbits of G conjugating G^n componentwise (n = 1 or 2), and how many
    are fixed by applying tau in every coordinate.

    For n = 2 the orbits are counted by class blocks, never on the |G|^2
    grid.  The orbits of the pairs whose first coordinate lies in the class
    of x_C match, by (x_C, y) <-> y, the orbits of the centralizer C(x_C)
    conjugating G; classes whose representatives have the same centralizer
    share one labelling of those.  With k classes and b distinct
    centralizers, the route forms |G|*k <= |G|^2 conjugates, and no kernel
    call labels more than b*|G| states.  The pair budget still bounds |G|^2,
    so a skip means the same on every route.
    """
    conj = conjugacy_classes(G)
    if n == 1:
        invariant = int(conj.tau_invariant_classes(tau).sum())
        return PairOrbitScan(1, conj.class_count, invariant)
    size = G.order * G.order
    if size > pair_budget:
        raise BudgetExceeded(
            f"|G|^2 = {size} exceeds the pair budget {pair_budget}"
        )
    order, k, reps = G.order, conj.class_count, conj.representatives
    # out[g, C] = g^-1 * x_C * g: each generator's map x -> s^-1*x*s moves
    # every representative one edge down the Cayley search tree
    out = G.along_words(reps, np.argsort(G.generator_conj_maps(), axis=1), lambda o, v: v[o])
    # The conjugates of x_C lie in its class, and the g fixing it are
    # |G|/|C| many, so they are |C| many: they fill the class.  (int32
    # class ids halve the (|G|, k) gather.)
    if not (conj.class_of.astype(np.int32)[out] == np.arange(k)).all():
        raise MathCheckError("a conjugate of a class representative lies outside its class")
    member = np.ascontiguousarray((out == reps).T)  # row C: the centralizer of x_C
    if not np.array_equal(member.sum(axis=1), order // conj.class_sizes):
        raise MathCheckError("centralizer orders disagree with the class sizes")
    # one block per distinct centralizer, numbered in order of first class
    blocks: dict = {}
    block_of = np.array([blocks.setdefault(key, len(blocks)) for key in
                         member.view(np.dtype((np.void, order))).ravel().tolist()])
    centralizers = member[np.unique(block_of, return_index=True)[1]]
    gens, spans = spanning_generators(G, centralizers)
    if (spans & ~centralizers).any():
        raise MathCheckError("a centralizer's generators span outside it")
    # block j's state j*|G| + y moves to j*|G| + s^-1*y*s for each of its
    # generators s
    b, depth = gens.shape
    ids, offset = np.arange(order), np.arange(b)[:, None] * order
    distinct, which = np.unique(gens, return_inverse=True)
    moves = G.conj_map(G.inverse[distinct][:, None])
    moves = moves[which.reshape(b, depth)] + offset[:, :, None]
    labels = orbit_labels(moves.transpose(1, 0, 2).reshape(depth, b * order)).ravel()
    heads = [np.flatnonzero(row) for row in labels.reshape(b, order) == offset + ids]
    orbits = np.array([len(h) for h in heads])
    # tau maps the orbit of (x_C, y) to that of (tau(x_C), tau(y)), so only
    # a class holding tau(x_C) can hold a fixed orbit.  There tau(x_C) =
    # g^-1 * x_C * g for the first such g read off ``out``, the image is the
    # orbit of (x_C, g*tau(y)*g^-1), and the orbit is fixed iff that
    # conjugate labels like y, its orbit's minimum.  Which orbits are fixed
    # depends on the block and g alone, so each such pair is checked once.
    fixed = np.flatnonzero(conj.tau_invariant_classes(tau))
    first = (out == tau.images[reps]).argmax(axis=0)[fixed]
    pairs, weight = np.unique(block_of[fixed] * order + first, return_counts=True)
    j, g = np.divmod(pairs, order)
    counts = orbits[j]
    y = np.concatenate([heads[i] for i in j])
    at = np.repeat(j * order, counts)
    g_inv = G.inverse[np.repeat(g, counts)]
    # g*t*g^-1 = (t^-1*g^-1)^-1 * g^-1: both products walk g's Cayley word,
    # which is short, as g is the first hit in id order
    image = G.mul(G.inverse[G.mul(G.inverse[tau.images[y]], g_inv)], g_inv)
    invariant = int((labels[at + image] == at + y) @ np.repeat(weight, counts))
    return PairOrbitScan(2, int(orbits[block_of].sum()), invariant)


@dataclass
class PowerSumReport:
    n: int
    sum_centralizer_pow: int      # sum over g of v(g)^n, exact
    sum_twisted_square_pow: int   # sum over g of counts(g)^(n+1), exact
    equal: bool
    verified_against_orbits: bool | None  # None when the scan was skipped
    skipped_reason: str | None = None


def power_sums(G: GroupTable, tau: GroupMap, n: int) -> tuple[int, int]:
    """Exact (sum over g of v(g)^n, sum over g of counts(g)^(n+1)), with v
    the centralizer order and counts the twisted square-root counts; the
    second never exceeds the first, which is asserted."""
    budget = power_budget(G.order)
    if budget is not None and n > budget:
        raise BudgetExceeded(
            f"power {n} exceeds the exponent budget {budget} for order {G.order}"
        )
    conj = conjugacy_classes(G)
    counts = count_twisted_squares(G, tau)
    v_rep = [int(G.order // s) for s in conj.class_sizes]
    z_rep = [int(z) for z in counts[conj.representatives]]
    sizes = [int(s) for s in conj.class_sizes]
    sum_v = sum(s * v**n for s, v in zip(sizes, v_rep))
    sum_z = sum(s * z ** (n + 1) for s, z in zip(sizes, z_rep))
    if sum_z > sum_v:
        raise MathCheckError(
            f"sum of twisted counts^{n + 1} = {sum_z} exceeds "
            f"sum of centralizer orders^{n} = {sum_v}"
        )
    return sum_v, sum_z


def power_sum_report(
    G: GroupTable,
    tau: GroupMap,
    n: int,
    pair_budget: int = PAIR_BUDGET,
) -> PowerSumReport:
    """Exact big-integer comparison of the two power sums; for n <= 2 the
    sums are also cross-checked against the orbit scans."""
    if n < 1:
        raise SpecError("power must be >= 1")
    sum_v, sum_z = power_sums(G, tau, n)
    verified = None
    reason = None
    if n <= 2:
        try:
            scan = simultaneous_conjugation_scan(G, n, tau, pair_budget)
        except BudgetExceeded as exc:
            reason = str(exc)
        else:
            ok = (
                sum_v == G.order * scan.orbit_count
                and sum_z == G.order * scan.tau_invariant_orbit_count
            )
            if not ok:
                raise MathCheckError(
                    "power sums disagree with the orbit scan: "
                    f"{sum_v} vs {G.order}*{scan.orbit_count}, "
                    f"{sum_z} vs {G.order}*{scan.tau_invariant_orbit_count}"
                )
            verified = True
    else:
        reason = f"orbit scan not run for n = {n}"
    return PowerSumReport(n, sum_v, sum_z, sum_z == sum_v, verified, reason)

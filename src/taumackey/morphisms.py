"""Automorphisms and involutory anti-automorphisms as id permutations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    HomomorphismViolation,
    InconsistentImages,
    InvalidMap,
    NotBijective,
    NotCliffordGroup,
    NotInvolutory,
    WrongKind,
)
from .groups import GroupTable


@dataclass(frozen=True)
class GroupMap:
    """A validated bijection of element ids with its homomorphism kind."""

    group: GroupTable
    images: np.ndarray
    kind: str  # "automorphism" | "anti-automorphism"
    involutory: bool


def _check_hom(G: GroupTable, images: np.ndarray, kind: str) -> tuple[int, int] | None:
    """Return a pair (b, s) at which the law fails, or None if it holds.

    Only generators s are checked: tau(b*s) = tau(s)*tau(b) for an
    anti-automorphism, tau(b*s) = tau(b)*tau(s) for an automorphism, for
    every b.  With tau(1) = 1 this proves the law for all pairs, by
    induction on the length of a as a positive word in the generators
    (which generate G, and every element of a finite group is such a word).
    """
    anti = kind == "anti-automorphism"
    for s in G.generators:
        lhs = images[G.right_mul_map(s)]
        ts = images[s]
        rhs = G.mul(ts, images) if anti else G.mul(images, ts)
        bad = np.flatnonzero(lhs != rhs)
        if len(bad):
            return int(bad[0]), s
    return None


def validate(G: GroupTable, images, kind: str) -> GroupMap:
    """Validate a raw id permutation as a map of the claimed kind."""
    if kind not in ("automorphism", "anti-automorphism"):
        raise InvalidMap(f"unknown kind {kind!r}")
    images = np.asarray(images, dtype=np.int64)
    if images.shape != (G.order,):
        raise NotBijective(f"expected {G.order} images, got shape {images.shape}")
    if not np.array_equal(np.sort(images), np.arange(G.order)):
        raise NotBijective("images are not a permutation of element ids")
    if images[0] != 0:
        raise NotBijective("map does not fix the identity")
    witness = _check_hom(G, images, kind)
    if witness is not None:
        a, b = witness
        other = "anti-automorphism" if kind == "automorphism" else "automorphism"
        hint = f"; the map is a valid {other}" if _check_hom(G, images, other) is None else ""
        raise HomomorphismViolation(
            f"{kind} law fails at witness ({G.label(a)}, {G.label(b)})" + hint, witness
        )
    involutory = bool(np.array_equal(images[images], np.arange(G.order)))
    return GroupMap(G, images, kind, involutory)


def tau_inverse(G: GroupTable) -> GroupMap:
    """g -> g^-1, always an involutory anti-automorphism."""
    return validate(G, G.inverse.astype(np.int64), "anti-automorphism")


def tau_identity(G: GroupTable) -> GroupMap:
    """The identity map; an anti-automorphism only on abelian groups."""
    if not G.is_abelian():
        raise WrongKind("identity map is an anti-automorphism only for abelian groups")
    return validate(G, np.arange(G.order, dtype=np.int64), "anti-automorphism")


def tau_inner(G: GroupTable, g0: int) -> GroupMap:
    """g -> g0 * g^-1 * g0^-1; involutory only when g0^2 is central, so the
    involution is checked rather than assumed."""
    g0 = int(g0)
    images = G.mul(G.mul(g0, G.inverse), G.inverse[g0])
    m = validate(G, images, "anti-automorphism")
    if not m.involutory:
        raise NotInvolutory(
            f"inner twist by {G.label(g0)} is not involutory (g0^2 not central)"
        )
    return m


def tau_clifford(G: GroupTable) -> GroupMap:
    """The sign-twisted involution for signed-subset groups when n = 3 mod 4,
    plain inversion otherwise."""
    n = G.meta.get("clifford_n")
    if n is None:
        raise NotCliffordGroup(f"{G.family_tag} was not built by clifford(n)")
    if n % 4 != 3:
        return tau_inverse(G)
    images = np.empty(G.order, dtype=np.int64)
    for i, (s, a) in enumerate(G.elements):
        k = bin(a).count("1")
        flip = -1 if (k * (k + 1) // 2) & 1 else 1
        images[i] = G.element_id((s * flip, a))
    return validate(G, images, "anti-automorphism")


def tau_from_generator_images(G: GroupTable, pairs: dict[int, int]) -> GroupMap:
    """Extend generator images along the Cayley search tree by the reversal
    rule tau(p*m) = tau(m)*tau(p), with tau(s^-1) = tau(s)^-1, then
    validate globally.  Every given pair, the generators' first, must agree
    with the extension, and the extension must be involutory."""
    for s in G.generators:
        if s not in pairs:
            raise InconsistentImages(f"no image given for generator {G.label(s)}")
    rows = G.mul(np.array([pairs[s] for s in G.generators], dtype=np.int64)[:, None],
                 np.arange(G.order))  # y -> tau(s)*y
    images = G.along_words(np.int64(0), rows, lambda t, row: row[t])
    for a in dict.fromkeys([*G.generators, *pairs]):
        if images[a] != pairs[a]:
            what = "generator" if a in G.generators else "element"
            raise InconsistentImages(
                f"{what} {G.label(a)} is given image {G.label(pairs[a])}, "
                f"but its Cayley word gives {G.label(int(images[a]))}"
            )
    m = validate(G, images, "anti-automorphism")
    if not m.involutory:
        raise NotInvolutory("the generator images extend to a non-involutory anti-automorphism")
    return m

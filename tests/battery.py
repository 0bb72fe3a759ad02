"""Shared battery of groups and involution choices used across the tests."""

from __future__ import annotations

import numpy as np

from taumackey import groups, morphisms

from oracles import mul_table

BATTERY_BUILDERS = {
    "Z3": lambda: groups.cyclic(3),
    "Z4": lambda: groups.cyclic(4),
    "Z5": lambda: groups.cyclic(5),
    "Z6": lambda: groups.cyclic(6),
    "S3": lambda: groups.symmetric(3),
    "S4": lambda: groups.symmetric(4),
    "S5": lambda: groups.symmetric(5),
    "A4": lambda: groups.alternating(4),
    "D4": lambda: groups.dihedral(4),
    "D5": lambda: groups.dihedral(5),
    "Q8": groups.quaternion8,
    "CL1": lambda: groups.clifford(1),
    "CL2": lambda: groups.clifford(2),
    "CL3": lambda: groups.clifford(3),
    "CL4": lambda: groups.clifford(4),
    "CL5": lambda: groups.clifford(5),
    "A5xZ2": lambda: groups.direct_product(
        groups.alternating(5), groups.cyclic(2)
    ),
}

CENSUS_BATTERY = ["Z6", "S3", "S4", "S5", "A4", "D4", "D5", "Q8", "CL3"]

_cache: dict[str, groups.GroupTable] = {}


def get_group(name: str) -> groups.GroupTable:
    if name not in _cache:
        _cache[name] = BATTERY_BUILDERS[name]()
    return _cache[name]


def battery_names() -> list[str]:
    return list(BATTERY_BUILDERS)


def _center(G: groups.GroupTable) -> np.ndarray:
    t = mul_table(G)
    return np.flatnonzero((t == t.T).all(axis=1))


def available_taus(G: groups.GroupTable, max_inner: int = 3):
    """Every involution the battery exercises for a group: inversion always,
    the identity on abelian groups, the signed-subset twist where it applies,
    and up to three inner twists by elements with central square."""
    out = [("inverse", morphisms.tau_inverse(G))]
    if G.is_abelian():
        out.append(("identity", morphisms.tau_identity(G)))
    if "clifford_n" in G.meta:
        out.append(("clifford", morphisms.tau_clifford(G)))
    center = set(int(z) for z in _center(G))
    candidates = [
        g for g in range(1, G.order) if G.mul(g, g) in center
    ]
    picks = []
    if candidates:
        picks = sorted({candidates[0], candidates[len(candidates) // 2], candidates[-1]})
    seen = {m.images.tobytes() for _, m in out}
    for g0 in picks[:max_inner]:
        m = morphisms.tau_inner(G, g0)
        key = m.images.tobytes()
        if key not in seen:
            seen.add(key)
            out.append((f"inner:{G.label(g0)}", m))
    return out


def symmetry_conditions(rep) -> tuple[bool, bool, bool, bool]:
    """The four equivalent symmetry conditions (a)-(d) of a Gelfand criteria
    report."""
    return (rep.cond_skew_dim_zero, rep.cond_orbits_symmetric,
            rep.cond_cosets_invariant, rep.cond_constituents_positive)

"""Simple-reducibility verdicts by three independent routes, cross-validated."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import PAIR_BUDGET
from .characters import (
    CharacterTable,
    multiplicity_free_pairs,
    tau_row_permutation,
    tensor_row,
)
from .conjugacy import power_sums, simultaneous_conjugation_scan
from .errors import BudgetExceeded, MathCheckError
from .groups import GroupTable
from .morphisms import GroupMap


@dataclass
class SRVerdict:
    """The three routes to the same yes/no answer, kept separate.

    Disagreement is the most valuable signal this tool produces, so it is
    reported (and surfaced as a failure by the caller), never reconciled.
    """

    definition_mf: bool
    definition_selfconj: bool
    mackey_cosets: bool | None            # None when the pair scan was skipped
    mackey_wigner: bool
    sums: tuple[int, int]                 # exact (twisted^3 sum, centralizer^2 sum)
    witnesses: dict = field(default_factory=dict)
    cosets_skipped: str | None = None     # why the pair scan was skipped

    @property
    def definition(self) -> bool:
        return self.definition_mf and self.definition_selfconj

    @property
    def verdicts(self) -> list[bool]:
        out = [self.definition, self.mackey_wigner]
        if self.mackey_cosets is not None:
            out.append(self.mackey_cosets)
        return out

    @property
    def agree(self) -> bool:
        return len(set(self.verdicts)) == 1

    @property
    def partially_verified(self) -> bool:
        return self.mackey_cosets is None


def check_definition(table: CharacterTable, tau: GroupMap) -> tuple[bool, bool, dict]:
    """(i) all pairwise products of irreducibles multiplicity-free, and
    (ii) every irreducible fixed by tau-conjugation; witnesses name the
    first violation of each."""
    witnesses: dict = {}
    # Every pair is decided, and N and S asserted integral, before any
    # witness.  Since m[i, j] = m[j, i], the first violation in (i, j, l)
    # order lies in the block m[i, i:] of the first row i with a failing pair.
    failing = ~multiplicity_free_pairs(table)
    if failing.any():
        i = int(np.flatnonzero(failing.any(axis=1))[0])
        block = tensor_row(table, i)
        if not np.array_equal((block > 1).any(axis=1), failing[i, i:]):
            raise MathCheckError(f"tensor row {i} disagrees with its sums N and S")
        j, l = (int(x) for x in np.argwhere(block > 1)[0])
        witnesses["tensor"] = {
            "rows": [i, i + j, l],
            "degrees": [int(table.degrees[x]) for x in (i, i + j, l)],
            "multiplicity": int(block[j, l]),
        }
    mf = "tensor" not in witnesses
    perm = tau_row_permutation(table, tau)
    fixed = perm == np.arange(len(perm))
    selfconj = bool(fixed.all())
    if not selfconj:
        i = int(np.flatnonzero(~fixed)[0])
        witnesses["self_conjugate"] = {"row": i, "maps_to": int(perm[i])}
    return mf, selfconj, witnesses


def check_mackey_cosets(
    G: GroupTable, tau: GroupMap, pair_budget: int = PAIR_BUDGET
) -> bool:
    """True iff every simultaneous-conjugation orbit on G x G is fixed by
    applying tau in both coordinates."""
    scan = simultaneous_conjugation_scan(G, 2, tau, pair_budget)
    return scan.tau_invariant_orbit_count == scan.orbit_count


def check_mackey_wigner(G: GroupTable, tau: GroupMap) -> tuple[bool, tuple[int, int]]:
    """Exact integer equality of the two power sums (cube of twisted counts
    vs square of centralizer orders)."""
    sum_v, sum_z = power_sums(G, tau, 2)
    return sum_z == sum_v, (sum_z, sum_v)


def simply_reducible_verdict(
    table: CharacterTable, tau: GroupMap, pair_budget: int = PAIR_BUDGET
) -> SRVerdict:
    """The three routes on the group of ``table``."""
    G = table.group
    mf, selfconj, witnesses = check_definition(table, tau)
    wigner, sums = check_mackey_wigner(G, tau)
    try:
        cosets, skipped = check_mackey_cosets(G, tau, pair_budget), None
    except BudgetExceeded as exc:
        cosets, skipped = None, str(exc)
    return SRVerdict(mf, selfconj, cosets, wigner, sums, witnesses, skipped)

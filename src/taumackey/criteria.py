"""Simple-reducibility verdicts by three independent routes, cross-validated."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .characters import (
    CharacterTable,
    multiplicity_free_pairs,
    tau_row_permutation,
    tensor_row,
)
from .conjugacy import (
    PAIR_BUDGET,
    power_sum_report,
    power_sums,
    simultaneous_conjugation_scan,
)
from .errors import BudgetExceeded, CrossCheckFailed
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
    skipped: dict = field(default_factory=dict)

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
    def simply_reducible(self) -> bool:
        if not self.agree:
            raise CrossCheckFailed(f"criteria disagree: {self}")
        return self.verdicts[0]

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
            raise CrossCheckFailed(f"tensor row {i} disagrees with its sums N and S")
        j, l = (int(x) for x in np.argwhere(block > 1)[0])
        witnesses["tensor"] = {
            "rows": (i, i + j, l),
            "degrees": tuple(int(table.degrees[x]) for x in (i, i + j, l)),
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
    skipped = {}
    try:
        cosets = check_mackey_cosets(G, tau, pair_budget)
    except BudgetExceeded as exc:
        cosets = None
        skipped["mackey_cosets"] = str(exc)
    return SRVerdict(mf, selfconj, cosets, wigner, sums, witnesses, skipped)


@dataclass
class AbelianCharacterization:
    equality_at_3: bool
    is_abelian_and_tau_identity: bool

    @property
    def biconditional_holds(self) -> bool:
        return self.equality_at_3 == self.is_abelian_and_tau_identity


def abelian_characterization(G: GroupTable, tau: GroupMap) -> AbelianCharacterization:
    """Power-sum equality at exponent 3 holds iff the group is abelian and
    tau is the identity; both sides are computed independently and the
    biconditional is asserted."""
    rep = power_sum_report(G, tau, 3)
    rhs = G.is_abelian() and tau.is_identity()
    out = AbelianCharacterization(rep.equal, rhs)
    if not out.biconditional_holds:
        raise CrossCheckFailed(
            f"abelian characterization violated: equality {rep.equal}, "
            f"abelian & identity {rhs}"
        )
    return out


def downward_equality_chain(G: GroupTable, tau: GroupMap, n0: int) -> list[bool]:
    """Equality flags for n = 1..n0; equality at some n forces it below."""
    flags = [power_sum_report(G, tau, n).equal for n in range(1, n0 + 1)]
    for lo in range(len(flags) - 1):
        if flags[lo + 1] and not flags[lo]:
            raise CrossCheckFailed(
                f"equality at n={lo + 2} without equality at n={lo + 1}"
            )
    return flags

"""Complex character tables and character-level functionals.

The table is computed by the class-algebra method: the exact integer
class-multiplication coefficients are counted from k*|G| products (one
x^-1 * r_m per element x and class representative r_m, after a proof that
every class is closed under conjugation) and kept as their at most k*|G|
nonzero cells, their symmetry under inversion is proved on the integers, a
random combination of the class matrices with r_i' = conj(r_i) is formed
from those cells by weighted counts, made Hermitian by a diagonal
similarity and diagonalized by the Hermitian solver, and eigenvectors are
normalized into central characters.  Floats enter only at the eigen stage;
every quantity that must be an integer (degrees, multiplicities,
indicators) is rounded with its residual asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import CLASS_CAP, DEFAULT_SEED
from .errors import BudgetExceeded, MathCheckError, SpecError
from .conjugacy import ConjugacyData, conjugacy_classes, count_twisted_squares, power_sums
from .groups import GroupTable
from .morphisms import GroupMap

INT_TOL = 1e-6
EIG_GAP = 1e-8
MAX_EIG_RETRIES = 20


@dataclass
class CharacterTable:
    group: GroupTable
    conj: ConjugacyData
    values: np.ndarray            # (k irreducibles) x (k classes), complex
    degrees: np.ndarray           # int per row
    orthogonality_residual: float
    integrality_residual: float

    @property
    def class_count(self) -> int:
        return self.conj.class_count

    def decompose(self, f: np.ndarray, what: str = "class function") -> np.ndarray:
        """Multiplicities of each irreducible row in the class values f (one
        per class, indexed like the table's columns), asserted integral."""
        w = self.conj.class_sizes / self.group.order
        mults = (self.values.conj() * w) @ f
        rounded = np.round(mults.real).astype(np.int64)
        residual = float(np.abs(mults - rounded).max())
        if residual > INT_TOL:
            raise MathCheckError(
                f"{what} has non-integral multiplicities (residual {residual:.3g})"
            )
        return rounded


def _class_matrices(G: GroupTable, conj: ConjugacyData) -> tuple[np.ndarray, np.ndarray]:
    """Exact structure constants of the class algebra, as their nonzero cells.

    A[i, j, m] = number of (x, y) in C_i x C_j with x*y = r_m, the
    representative of C_m; that is #{x in C_i : x^-1 * r_m in C_j}
    (Dixon 1967, Schneider 1990).  One batched mul forms the k*|G| products
    x^-1 * r_m (every x, every m), and one count of the triples
    (class of x, class of x^-1 * r_m, m) gives every nonzero constant.
    Returns (cells, counts): the ascending flat indices (i*k + j)*k + m of
    the nonzero A[i, j, m] and their int64 values, at most k*|G| of each
    (D397: 79,402 of k^3 = 8,000,000); the k^3 array is never formed.  The
    indices are int32 while k^3 fits, which sorts three times faster than
    int64.

    Reading one representative per class is sound only if every class is
    closed under conjugation; then conjugating r_m by any g permutes each
    class, and the count does not depend on the representative.  That is
    proved first: conjugation by each generator maps every class into
    itself (|S|*|G| reads).
    """
    class_of = conj.class_of
    if any((class_of[c] != class_of).any() for c in G.generator_conj_maps()):
        raise MathCheckError("class products are not constant on classes")
    k = conj.class_count
    index = class_of.astype(np.int32 if k**3 <= 2**31 else np.int64)
    prods = G.mul(G.inverse[:, None], conj.representatives)   # (|G|, k)
    flat = (index[:, None] * k + index[prods]) * k + np.arange(k, dtype=index.dtype)
    return np.unique(flat, return_counts=True)


def _inverse_symmetry(G: GroupTable, conj: ConjugacyData, cells: np.ndarray,
                      counts: np.ndarray, i: np.ndarray, jm: np.ndarray) -> np.ndarray:
    """Prove |C_m| * a_ijm = |C_j| * a_i'mj exactly for every cell, with i' the
    class of the inverses of C_i, and return i'.  The cells come as returned
    by _class_matrices and split as (i, j*k + m).

    Then S^-1 * A_i * S = A_i'^T with S = diag(class sizes), so for
    coefficients with r_i' = conj(r_i), S^-1/2 * (sum_i r_i A_i) * S^1/2 is
    Hermitian.  The Hermitian solver reads one triangle only, so the identity
    is checked on the integer cells first: each cell (i, j, m) is mirrored to
    (i', m, j), the mirrored cells must be exactly the cells, and the counts
    must match, as integers, cell by mirrored cell."""
    k = conj.class_count
    inverse_class = conj.class_of[G.inverse[conj.representatives]].astype(cells.dtype)
    j, m = np.divmod(jm, k)
    mirrored = (inverse_class[i] * k + m) * k + j
    order = np.argsort(mirrored)      # cell s is the mirror of cell order[s]
    sizes = conj.class_sizes
    if (
        (inverse_class[inverse_class] != np.arange(k)).any()
        or not np.array_equal(mirrored[order], cells)
        or not np.array_equal(sizes[j] * counts[order], sizes[m] * counts)
    ):
        raise MathCheckError("class constants break |C_m|*a_ijm = |C_j|*a_i'mj")
    return inverse_class


def _class_combination(i: np.ndarray, jm: np.ndarray, counts: np.ndarray,
                       r: np.ndarray) -> np.ndarray:
    """M = sum_i r_i * A_i, the (k, k) matrix M[j, m] = sum_i r_i * A[i, j, m],
    from the nonzero cells of A split as (i, j*k + m): one weighted count for
    the real part of r and one more for its imaginary part, if that is not
    zero (a bincount takes real weights only).  M is real when r is."""
    k = len(r)
    M = np.bincount(jm, weights=r.real[i] * counts, minlength=k * k)
    if r.imag.any():
        M = M + 1j * np.bincount(jm, weights=r.imag[i] * counts, minlength=k * k)
    return M.reshape(k, k)


def compute_character_table(
    G: GroupTable, seed: int | None = None, class_cap: int = CLASS_CAP
) -> CharacterTable:
    """Full complex irreducible character table with deterministic row order
    (by degree, then by value lexicographically with the trivial row first)."""
    seed = DEFAULT_SEED if seed is None else int(seed)
    conj = conjugacy_classes(G)
    k = conj.class_count
    if k > class_cap:
        raise BudgetExceeded(f"class count {k} exceeds the cap {class_cap}")
    cells, counts = _class_matrices(G, conj)
    i, jm = np.divmod(cells, k * k)
    inverse_class = _inverse_symmetry(G, conj, cells, counts, i, jm)
    sizes = conj.class_sizes.astype(float)
    root = np.sqrt(sizes)
    rng = np.random.default_rng(seed)
    last_problem = "no attempt made"
    for _ in range(MAX_EIG_RETRIES):
        # r_i' = conj(r_i): real wherever every class is its own inverse class
        x, y = rng.standard_normal((2, k))
        r = (x + x[inverse_class]) / 2 + 1j * (y - y[inverse_class]) / 2
        M = _class_combination(i, jm, counts, r)
        eigvals, v = np.linalg.eigh(M / root[:, None] * root)   # ascending
        eigvecs = root[:, None] * v
        scale = max(1.0, float(np.abs(eigvals).max()))
        gap = np.diff(eigvals).min() if k > 1 else np.inf
        if gap < EIG_GAP * scale:
            last_problem = f"eigenvalue gap {gap:.3g}"
            continue
        if np.abs(eigvecs[0]).min() < 1e-12:
            last_problem = "eigenvector vanishes at the identity class"
            continue
        omegas = eigvecs / eigvecs[0]          # central characters, columns
        d2 = G.order / np.sum(np.abs(omegas) ** 2 / sizes[:, None], axis=0)
        degs = np.sqrt(d2)
        X = (degs[None, :] * omegas / sizes[:, None]).T   # rows = irreducibles
        deg_res = float(np.abs(degs - np.round(degs.real)).max())
        if deg_res > INT_TOL:
            last_problem = f"degree residual {deg_res:.3g}"
            continue
        degrees = np.round(degs.real).astype(np.int64)
        if int((degrees**2).sum()) != G.order:
            last_problem = "sum of squared degrees misses |G|"
            continue
        if any(G.order % int(d) for d in degrees):
            last_problem = "a degree does not divide |G|"
            continue
        gram = (X * conj.class_sizes) @ X.conj().T / G.order
        orth = float(np.abs(gram - np.eye(k)).max())
        if orth > 1e-8 * k:
            last_problem = f"orthogonality residual {orth:.3g}"
            continue
        # by degree, then column by column by (-real, -imag) to 6 places;
        # lexsort's last key is the primary one
        keys = -np.round(np.stack([X.real, X.imag], axis=2), 6).reshape(k, 2 * k)
        order = np.lexsort((*keys.T[::-1], degrees))
        return CharacterTable(
            group=G,
            conj=conj,
            values=np.ascontiguousarray(X[order]),
            degrees=degrees[order],
            orthogonality_residual=orth,
            integrality_residual=deg_res,
        )
    raise MathCheckError(
        f"no usable eigenbasis after {MAX_EIG_RETRIES} random combinations: "
        + last_problem
    )


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def _integral(raw: np.ndarray) -> np.ndarray:
    rounded = np.round(raw.real).astype(np.int64)
    worst = float(np.abs(raw - rounded).max())
    if worst > INT_TOL:
        raise MathCheckError(
            f"tensor multiplicities are not integral (residual {worst:.3g})"
        )
    return rounded


def multiplicity_free_pairs(table: CharacterTable) -> np.ndarray:
    """mf[i, j]: no row occurs twice in the product of rows i and j.  With
    m[i, j, l] the multiplicity of row l in it, w_c = |C_c|/|G| and s the
    sum of the rows, N = sum_c w_c |chi_i chi_j|^2 = sum_l m^2 and
    S = sum_c w_c chi_i chi_j conj(s) = sum_l m (Isaacs, ch. 2), which for
    integers m >= 0 are equal iff every m is 0 or 1: two k x k products,
    asserted integral, in place of the k^3 multiplicities."""
    X = table.values
    w = table.conj.class_sizes / table.group.order
    a = np.abs(X) ** 2
    N = _integral((a * w) @ a.T)
    return N == _integral((X * (w * X.sum(axis=0).conj())) @ X.T)


def tensor_row(table: CharacterTable, i: int) -> np.ndarray:
    """The int64 block m[i, i:] of the tensor multiplicities (rows j >= i)."""
    X = table.values
    w = table.conj.class_sizes / table.group.order
    return _integral((X[i] * X[i:]) @ (X.conj() * w).T)


# ---------------------------------------------------------------------------
# indicators
# ---------------------------------------------------------------------------

def _indicator_from_targets(table: CharacterTable, targets: np.ndarray) -> np.ndarray:
    counts = np.bincount(
        table.conj.class_of[targets], minlength=table.class_count
    )
    return (table.values @ counts) / table.group.order


def _round_indicators(raw: np.ndarray, what: str) -> np.ndarray:
    rounded = np.round(raw.real).astype(np.int64)
    residual = float(np.abs(raw - rounded).max())
    if residual > INT_TOL:
        raise MathCheckError(f"{what} residual {residual:.3g}")
    if np.abs(rounded).max() > 1:
        raise MathCheckError(f"{what} outside {{-1, 0, 1}}: {rounded}")
    return rounded


@dataclass
class TwistedIndicators:
    values: np.ndarray        # int per row
    max_residual: float
    expansion_residual: float  # max |counts(g) - sum over rows of indicator * chi(g)|


def twisted_fs_indicators(table: CharacterTable, tau: GroupMap) -> TwistedIndicators:
    """Twisted indicators computed two independent ways and asserted equal,
    and the twisted square-root counts asserted to expand in the rows with
    the rounded indicators as coefficients."""
    G = table.group
    if tau.group is not G:
        raise SpecError("map lives on a different group")
    targets = G.mul(G.inverse[tau.images], np.arange(G.order))  # tau(g)^-1 * g
    trace_route = _indicator_from_targets(table, targets)
    counts = count_twisted_squares(G, tau)[table.conj.representatives]
    weights = counts * table.conj.class_sizes
    count_route = (table.values.conj() @ weights) / G.order
    agreement = float(np.abs(trace_route - count_route).max())
    if agreement > INT_TOL:
        raise MathCheckError(
            f"twisted indicator routes disagree (residual {agreement:.3g})"
        )
    values = _round_indicators(trace_route, "twisted Frobenius-Schur indicator")
    residual = float(np.abs(trace_route - values).max())
    expansion = float(np.abs(values.astype(complex) @ table.values - counts).max())
    if expansion > INT_TOL:
        raise MathCheckError(
            f"twisted square-root counts do not expand in the rows (residual {expansion:.3g})"
        )
    return TwistedIndicators(values, max(residual, agreement), expansion)


# ---------------------------------------------------------------------------
# tau-conjugate rows
# ---------------------------------------------------------------------------

def tau_row_permutation(table: CharacterTable, tau: GroupMap) -> np.ndarray:
    """perm[i] = j with chi_j(g) = chi_i(tau(g)) for all g."""
    if tau.group is not table.group:
        raise SpecError("map lives on a different group")
    X = table.values
    twisted = X[:, table.conj.tau_class_image(tau)]
    # the twisted rows against every row in one k x k product: a row within
    # INT_TOL of chi_j has inner product near 1 with it and near 0 elsewhere
    w = table.conj.class_sizes / table.group.order
    perm = (twisted @ (X.conj() * w).T).real.argmax(axis=1)
    worst = float(np.abs(X[perm] - twisted).max())
    if worst > INT_TOL:
        raise MathCheckError(
            f"tau-conjugate of some row is not in the table (residual {worst:.3g})"
        )
    if len(np.unique(perm)) != len(perm):
        raise MathCheckError("tau-conjugation did not permute the rows")
    return perm


@dataclass
class SelfConjugateCensus:
    count: int                    # self-tau-conjugate rows
    squared_count_route: int      # (1/|G|) sum counts(g)^2, exact
    invariant_class_route: int


def self_conjugate_census(table: CharacterTable, tau: GroupMap) -> SelfConjugateCensus:
    """Three equal quantities: self-tau-conjugate rows, tau-invariant classes,
    and the exact averaged square of the twisted square-root counts."""
    perm = tau_row_permutation(table, tau)
    count = int((perm == np.arange(len(perm))).sum())
    _, total = power_sums(table.group, tau, 1)
    if total % table.group.order:
        raise MathCheckError("averaged squared counts are not integral")
    squared_route = total // table.group.order
    class_route = int(table.conj.tau_invariant_classes(tau).sum())
    if not (count == squared_route == class_route):
        raise MathCheckError(
            f"census disagreement: rows {count}, counts {squared_route}, "
            f"classes {class_route}"
        )
    return SelfConjugateCensus(count, squared_route, class_route)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _rounded_pairs(values: np.ndarray) -> list:
    """Rows of [re, im] pairs, each part round(x, 12) of a Python float to
    the last bit and the sign of zero.  With y = x * 1e12 (one rounding),
    np.rint(y) / 1e12 is that value unless the exact x * 10^12 may lie on
    the other side of a half-integer than y does, or y is too large for
    rint to matter; only those parts are rounded one Python float at a
    time."""
    parts = np.stack([values.real, values.imag], axis=-1)
    y = parts * 1e12
    rounded = np.rint(y) / 1e12
    near_half = np.abs(y - np.floor(y) - 0.5) <= np.spacing(np.abs(y))
    for at in zip(*np.nonzero(near_half | (np.abs(y) >= 2.0**52))):
        rounded[at] = round(float(parts[at]), 12)
    # one Python float per distinct bit pattern (-0.0 apart from 0.0): a
    # table repeats most of its values, and every imaginary part of a real one
    bits, where = np.unique(rounded.view(np.int64), return_inverse=True)
    shared = np.array(bits.view(np.float64).tolist(), dtype=object)
    return shared[where.reshape(parts.shape)].tolist()


def table_to_jsonable(table: CharacterTable) -> dict:
    conj = table.conj
    return {
        "order": table.group.order,
        "class_representatives": [table.group.label(int(r)) for r in conj.representatives],
        "class_sizes": [int(s) for s in conj.class_sizes],
        "degrees": [int(d) for d in table.degrees],
        "rows": _rounded_pairs(table.values),
        "quality": {
            "orthogonality_residual": table.orthogonality_residual,
            "integrality_residual": table.integrality_residual,
        },
    }

"""Finite group construction: Cayley closure, builtin families, products.

Elements of a constructed group are dense integer ids ``0..order-1`` with
id 0 always the identity.  Groups of order <= DENSE_CAP carry a fully
materialized order x order multiplication table; larger groups multiply on
demand from their concrete elements (permutation tuples, signed subsets,
pairs) with a memoized inverse table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    ClosureCapExceeded,
    InvalidMap,
    NonGroup,
    NotASubgroup,
    UnknownFamily,
)

if TYPE_CHECKING:  # pragma: no cover
    from .morphisms import GroupMap

ORDER_CAP = 20000
DENSE_CAP = 4096
# sampled associativity for groups without a dense table
ASSOC_TRIPLES = 20_000
ASSOC_SEED = 0


class GroupTable:
    """A fully enumerated finite group over element ids 0..order-1."""

    def __init__(
        self,
        order: int,
        label_of: Callable[[int], str],
        generators: list[int],
        family_tag: str,
        table: np.ndarray | None,
        inverse: np.ndarray,
        elements: list | None = None,
        element_index: dict | None = None,
        compose=None,
        meta: dict | None = None,
    ):
        self.order = order
        self._label_of = label_of
        self._labels: list[str] | None = None
        self.generators = generators
        self.family_tag = family_tag
        self.table = table
        self.inverse = inverse
        self.elements = elements
        self._element_index = element_index
        self._compose = compose
        self.meta = meta or {}
        self._caches: dict = {}

    # -- arithmetic ---------------------------------------------------------

    @property
    def is_dense(self) -> bool:
        return self.table is not None

    def mul(self, a: int, b: int) -> int:
        if self.table is not None:
            return int(self.table[a, b])
        c = self._compose(self.elements[a], self.elements[b])
        return self._element_index[c]

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def require_dense(self, what: str) -> np.ndarray:
        if self.table is None:
            raise BudgetExceeded(
                f"{what} needs a dense multiplication table; "
                f"|G|={self.order} exceeds the dense cap"
            )
        return self.table

    def right_mul_map(self, s: int) -> np.ndarray:
        """The permutation x -> x*s of all element ids."""
        if self.table is not None:
            return self.table[:, s].astype(np.int64)
        return np.array([self.mul(x, s) for x in range(self.order)], dtype=np.int64)

    def conj_map(self, s: int) -> np.ndarray:
        """The permutation x -> s*x*s^-1 of all element ids."""
        if self.table is not None:
            si = int(self.inverse[s])
            return self.table[self.table[s, :], si].astype(np.int64)
        return np.array([self.conj(s, x) for x in range(self.order)], dtype=np.int64)

    def generator_conj_maps(self) -> np.ndarray:
        key = "generator_conj_maps"
        if key not in self._caches:
            gens = self.generators or [0]
            self._caches[key] = np.stack([self.conj_map(s) for s in gens])
        return self._caches[key]

    # -- lookup ---------------------------------------------------------------

    def label(self, a: int) -> str:
        """The element's display label, computed on demand."""
        return self._label_of(int(a))

    @property
    def labels(self) -> list[str]:
        """Every element's label by id, built on first access."""
        if self._labels is None:
            self._labels = [self._label_of(a) for a in range(self.order)]
        return self._labels

    def element_id(self, what) -> int:
        """Resolve a label, concrete element, or cycle-notation string to an id.

        Permutation groups (those with a degree) label by cycle notation, so
        a string is parsed, never looked up in the label list.
        """
        if isinstance(what, (int, np.integer)):
            i = int(what)
            if not 0 <= i < self.order:
                raise InvalidMap(f"element id {i} out of range for order {self.order}")
            return i
        key = what
        if isinstance(what, str) and self.meta.get("degree"):
            key = parse_cycles(what, self.meta["degree"])
        elif isinstance(what, str):
            try:
                return self.labels.index(what)
            except ValueError:
                raise InvalidMap(f"no element matching {what!r}") from None
        if self._element_index is not None and key in self._element_index:
            return self._element_index[key]
        raise InvalidMap(f"no element matching {what!r}")

    def is_abelian(self) -> bool:
        key = "abelian"
        if key not in self._caches:
            if self.table is not None:
                self._caches[key] = bool(np.array_equal(self.table, self.table.T))
            else:
                gens = self.generators
                self._caches[key] = all(
                    self.mul(s, x) == self.mul(x, s)
                    for s in gens
                    for x in range(self.order)
                )
        return self._caches[key]

    def __repr__(self):
        return f"GroupTable({self.family_tag}, order={self.order})"


# ---------------------------------------------------------------------------
# permutation helpers
# ---------------------------------------------------------------------------

def perm_compose(p: tuple, q: tuple) -> tuple:
    """(p*q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def perm_label(p: tuple) -> str:
    """Cycle notation on points 1..m; identity is 'e'."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) if out else "e"


def parse_cycles(text: str, degree: int) -> tuple:
    """Parse one-line cycle notation on points 1..degree into a 0-based tuple."""
    text = text.strip()
    perm = list(range(degree))
    if text in ("", "e", "()", "id"):
        return tuple(perm)
    if text.count("(") == 0 or text.count("(") != text.count(")"):
        raise InvalidMap(f"bad cycle notation: {text!r}")
    for chunk in text.replace(")", ")|").split("|"):
        chunk = chunk.strip()
        if not chunk:
            continue
        body = chunk.strip("() \t")
        if not body:
            continue
        try:
            pts = [int(t) for t in body.replace(",", " ").split()]
        except ValueError:
            raise InvalidMap(f"bad cycle {chunk!r}: points must be integers") from None
        if any(not 1 <= t <= degree for t in pts) or len(set(pts)) != len(pts):
            raise InvalidMap(f"bad cycle {chunk!r} for degree {degree}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


# ---------------------------------------------------------------------------
# Cayley closure
# ---------------------------------------------------------------------------

def enumerate_from_generators(
    generators: Sequence,
    compose: Callable,
    label: Callable = str,
    family_tag: str = "generators",
    cap: int = ORDER_CAP,
    dense_cap: int = DENSE_CAP,
    meta: dict | None = None,
) -> GroupTable:
    """Close a set of concrete elements under composition into a GroupTable.

    Elements must be hashable and compose associatively.  The identity is
    discovered (one probe, then verified against all generators) and gets
    id 0; a missing identity or inverse raises NonGroup.
    """
    seeds: list = []
    for g in generators:
        if g not in seeds:
            seeds.append(g)
    if not seeds:
        raise NonGroup("generator list is empty")

    index: dict = {g: i for i, g in enumerate(seeds)}
    order: list = list(seeds)
    parent: list[tuple[int, int] | None] = [None] * len(seeds)

    # breadth-first: element i is expanded by every generator exactly once,
    # in discovery order, so right_by[s][i] = index of order[i] * seeds[s]
    right_by: list[list[int]] = [[] for _ in seeds]
    i = 0
    while i < len(order):
        x = order[i]
        for s, gen in enumerate(seeds):
            c = compose(x, gen)
            j = index.get(c)
            if j is None:
                j = len(order)
                if j >= cap:
                    raise ClosureCapExceeded(
                        f"closure exceeded cap {cap} (tag {family_tag})"
                    )
                index[c] = j
                order.append(c)
                parent.append((i, s))
            right_by[s].append(j)
        i += 1
    n = len(order)

    # identity: probe with the first generator, then verify on all of them
    probe = 0
    e_old = None
    for i in range(n):
        if right_by[probe][i] == probe:
            if all(right_by[s][i] == s for s in range(len(seeds))):
                e_old = i
                break
    if e_old is None:
        raise NonGroup("no identity element in the closure")

    # reorder: identity first, rest in discovery order
    old_of_new = [e_old] + [i for i in range(n) if i != e_old]
    remap = np.empty(n, dtype=np.int64)
    for new_i, old_i in enumerate(old_of_new):
        remap[old_i] = new_i
    elements = [order[i] for i in old_of_new]
    element_index = {el: i for i, el in enumerate(elements)}
    gen_ids = [int(remap[index[g]]) for g in seeds]

    table = None
    if n <= dense_cap:
        right_new = [
            remap[np.array(col, dtype=np.int64)][old_of_new] for col in right_by
        ]
        table = np.empty((n, n), dtype=np.int32)
        table[:, 0] = np.arange(n, dtype=np.int32)
        for s, gid in enumerate(gen_ids):
            if gid != 0:
                table[:, gid] = right_new[s]
        # column of w*s comes from the column of w: x*(w*s) = (x*w)*s
        for old_j in range(n):
            if parent[old_j] is None:
                continue
            new_j = int(remap[old_j])
            if new_j == 0:
                continue
            pi, s = parent[old_j]
            table[:, new_j] = right_new[s][table[:, int(remap[pi])]]
        inverse = _inverse_from_table(table)
    else:
        inverse = _inverse_by_powers(elements, element_index, compose)

    return GroupTable(
        order=n,
        label_of=lambda a: label(elements[a]),
        generators=gen_ids,
        family_tag=family_tag,
        table=table,
        inverse=inverse,
        elements=elements,
        element_index=element_index,
        compose=compose,
        meta=meta,
    )


def _inverse_from_table(table: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    rows, cols = np.nonzero(table == 0)
    if not np.array_equal(rows, np.arange(n)):
        raise NonGroup("some element lacks a unique right inverse; not a group")
    inverse = np.empty(n, dtype=np.int32)
    inverse[rows] = cols
    if not (table[inverse, np.arange(n)] == 0).all():
        raise NonGroup("one-sided inverses only; not a group")
    return inverse


def _inverse_by_powers(elements, element_index, compose) -> np.ndarray:
    n = len(elements)
    e = elements[0]
    inverse = np.empty(n, dtype=np.int32)
    for i, x in enumerate(elements):
        prev, cur = x, compose(x, x)
        steps = 1
        while cur != e:
            prev, cur = cur, compose(cur, x)
            steps += 1
            if steps > n:
                raise NonGroup(f"element {i} has no inverse in the closure")
        inverse[i] = element_index[prev] if steps > 1 else (i if x == e else element_index[x])
    inverse[0] = 0
    return inverse


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------

def cyclic(n: int, cap: int = ORDER_CAP) -> GroupTable:
    if n < 1:
        raise UnknownFamily(f"cyclic({n})")
    deg = max(n, 1)
    gen = tuple(range(1, n)) + (0,) if n > 1 else (0,)
    return enumerate_from_generators(
        [gen], perm_compose, perm_label, f"cyclic({n})", cap, meta={"degree": deg}
    )


def symmetric(n: int, cap: int = ORDER_CAP) -> GroupTable:
    if n < 1:
        raise UnknownFamily(f"symmetric({n})")
    if n == 1:
        return cyclic(1)
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    gens = [swap] if n == 2 else [swap, cycle]
    return enumerate_from_generators(
        gens, perm_compose, perm_label, f"symmetric({n})", cap, meta={"degree": n}
    )


def alternating(n: int, cap: int = ORDER_CAP) -> GroupTable:
    if n < 1:
        raise UnknownFamily(f"alternating({n})")
    if n <= 2:
        g = cyclic(1)
        g.family_tag = f"alternating({n})"
        return g
    gens = []
    for k in range(2, n):
        p = list(range(n))
        p[0], p[1], p[k] = p[1], p[k], p[0]
        gens.append(tuple(p))
    return enumerate_from_generators(
        gens, perm_compose, perm_label, f"alternating({n})", cap, meta={"degree": n}
    )


def dihedral(n: int, cap: int = ORDER_CAP) -> GroupTable:
    """Symmetry group of the n-gon, order 2n."""
    if n < 1:
        raise UnknownFamily(f"dihedral({n})")
    if n == 1:
        g = symmetric(2)
        g.family_tag = "dihedral(1)"
        return g
    if n == 2:
        # 2-gon symmetries degenerate as permutations; use two disjoint swaps
        a = (1, 0, 2, 3)
        b = (0, 1, 3, 2)
        return enumerate_from_generators(
            [a, b], perm_compose, perm_label, "dihedral(2)", cap, meta={"degree": 4}
        )
    rot = tuple(range(1, n)) + (0,)
    refl = tuple((n - i) % n for i in range(n))
    return enumerate_from_generators(
        [rot, refl], perm_compose, perm_label, f"dihedral({n})", cap, meta={"degree": n}
    )


_QUAT_BASIS = [
    [(1, 0), (1, 1), (1, 2), (1, 3)],
    [(1, 1), (-1, 0), (1, 3), (-1, 2)],
    [(1, 2), (-1, 3), (-1, 0), (1, 1)],
    [(1, 3), (1, 2), (-1, 1), (-1, 0)],
]
_QUAT_LABELS = ["1", "i", "j", "k"]


def _quat_mul(a, b):
    s, k = _QUAT_BASIS[a[1]][b[1]]
    return (a[0] * b[0] * s, k)


def _quat_label(a):
    return ("-" if a[0] < 0 else "") + _QUAT_LABELS[a[1]]


def quaternion8(cap: int = ORDER_CAP) -> GroupTable:
    return enumerate_from_generators(
        [(1, 1), (1, 2)], _quat_mul, _quat_label, "quaternion8", cap
    )


def _subset_inversions(a: int, b: int) -> int:
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
    """Signed-subset product: signs multiply, inversion pairs flip the sign,
    subsets combine by symmetric difference."""
    (s1, a), (s2, b) = x, y
    s = s1 * s2 * (-1) ** (_subset_inversions(a, b) & 1)
    return (s, a ^ b)


def clifford_inverse(x: tuple) -> tuple:
    s, a = x
    k = bin(a).count("1")
    return (s * (-1) ** ((k * (k - 1) // 2) & 1), a)


def _clifford_label(x: tuple, n: int) -> str:
    s, a = x
    sign = "-" if s < 0 else ""
    if a == 0:
        return sign + "1"
    pts = [str(i + 1) for i in range(n) if a >> i & 1]
    body = "".join(pts) if n <= 9 else "(" + ",".join(pts) + ")"
    return f"{sign}g{body}"


def clifford(n: int, cap: int = ORDER_CAP) -> GroupTable:
    """The signed-subset group of order 2^(n+1): elements +-g_A, A within 1..n.

    The builtin order claim for this family in some sources is 2^n-flavored;
    the element model has 2^(n+1) members and that is what we enumerate.
    """
    if n < 1:
        raise UnknownFamily(f"clifford({n})")
    if 2 ** (n + 1) > cap:
        raise ClosureCapExceeded(f"clifford({n}) has order {2 ** (n + 1)} > cap {cap}")
    gens = [(1, 1 << i) for i in range(n)] + [(-1, 0)]
    return enumerate_from_generators(
        gens,
        clifford_mul,
        lambda x: _clifford_label(x, n),
        f"clifford({n})",
        cap,
        meta={"clifford_n": n},
    )


def direct_product(g1: GroupTable, g2: GroupTable, cap: int = ORDER_CAP) -> GroupTable:
    """Componentwise product; id of (a, b) is a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    if n > cap:
        raise ClosureCapExceeded(f"direct product order {n} > cap {cap}")

    def label_of(a):
        return f"({g1.label(a // n2)},{g2.label(a % n2)})"

    generators = [int(s) * n2 for s in g1.generators] + [int(s) for s in g2.generators]
    tag = f"product({g1.family_tag},{g2.family_tag})"
    if g1.is_dense and g2.is_dense and n <= DENSE_CAP:
        t1 = g1.table.astype(np.int64)
        t2 = g2.table.astype(np.int64)
        table = (
            t1[:, None, :, None] * n2 + t2[None, :, None, :]
        ).reshape(n, n).astype(np.int32)
        inverse = (
            g1.inverse.astype(np.int64)[:, None] * n2
            + g2.inverse.astype(np.int64)[None, :]
        ).reshape(n).astype(np.int32)
        return GroupTable(n, label_of, generators, tag, table, inverse,
                          meta={"product_of": (n1, n2)})
    inverse = (
        g1.inverse.astype(np.int64)[:, None] * n2
        + g2.inverse.astype(np.int64)[None, :]
    ).reshape(n).astype(np.int32)

    def compose(x, y):
        return (g1.mul(x[0], y[0]), g2.mul(x[1], y[1]))

    elements = [(a, b) for a in range(n1) for b in range(n2)]
    element_index = {el: i for i, el in enumerate(elements)}
    return GroupTable(n, label_of, generators, tag, None, inverse,
                      elements=elements, element_index=element_index,
                      compose=compose, meta={"product_of": (n1, n2)})


def construct_family(family: str, n: int | None = None, cap: int = ORDER_CAP) -> GroupTable:
    """Build a named builtin family; see the CLI schema for the JSON form."""
    builders = {
        "cyclic": cyclic,
        "dihedral": dihedral,
        "symmetric": symmetric,
        "alternating": alternating,
        "clifford": clifford,
    }
    if family == "quaternion8":
        return quaternion8(cap)
    if family in builders:
        if n is None:
            raise UnknownFamily(f"family {family!r} needs parameter n")
        return builders[family](n, cap)
    raise UnknownFamily(f"unknown family {family!r}")


def construct_semidirect_with_involution(N: GroupTable, tau: "GroupMap") -> GroupTable:
    """Order-2 extension of N by the automorphism n -> tau(n^-1).

    Elements are pairs (n, e) with id e*|N| + n, so N embeds as ids
    0..|N|-1 and h = (1, 1) has id |N|.  The defining relations h*h = 1 and
    h*n*h = tau(n)^-1 are asserted after construction.
    """
    if tau.group is not N:
        raise InvalidMap("map is attached to a different group")
    if tau.kind != "anti-automorphism" or not tau.involutory:
        raise InvalidMap("need a validated involutory anti-automorphism")
    n = N.order
    order = 2 * n
    if order > ORDER_CAP:
        raise ClosureCapExceeded(f"semidirect order {order} > cap {ORDER_CAP}")
    timg = tau.images.astype(np.int64)
    ninv = N.inverse.astype(np.int64)
    alpha = timg[ninv]  # n -> tau(n^-1), an automorphism
    tN = N.require_dense("semidirect construction").astype(np.int64)
    table = np.empty((order, order), dtype=np.int32)
    # (a, ea)*(b, eb) = (a * alpha^ea(b), ea+eb mod 2)
    table[:n, :n] = tN
    table[:n, n:] = tN + n
    table[n:, :n] = tN[:, alpha] + n
    table[n:, n:] = tN[:, alpha]
    inverse = np.empty(order, dtype=np.int32)
    inverse[:n] = N.inverse
    inverse[n:] = alpha[ninv] + n

    def label_of(a):
        if a < n:
            return N.label(a)
        return "h" if a == n else f"h*{N.label(a - n)}"

    generators = list(N.generators) + [n]
    g = GroupTable(
        order,
        label_of,
        generators,
        f"semidirect({N.family_tag})",
        table,
        inverse,
        meta={"base_order": n, "h": n},
    )
    h = n
    if g.mul(h, h) != 0:
        raise NonGroup("semidirect relation h*h = 1 failed")
    for a in range(n):
        if g.mul(g.mul(h, a), h) != int(ninv[timg[a]]):
            raise NonGroup("semidirect relation h*n*h = tau(n)^-1 failed")
    return g


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def subgroup_closure(G: GroupTable, gen_ids: Iterable[int]) -> np.ndarray:
    """Sorted ids of the subgroup generated by gen_ids."""
    seen = {0}
    frontier = [0]
    gens = [int(g) for g in gen_ids]
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = G.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return np.array(sorted(seen), dtype=np.int64)


def check_subgroup(G: GroupTable, ids: np.ndarray) -> np.ndarray:
    """Validate that ids form a subgroup; returns them sorted."""
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    if len(ids) == 0 or ids[0] != 0:
        raise NotASubgroup("subgroup must contain the identity (id 0)")
    member = np.zeros(G.order, dtype=bool)
    member[ids] = True
    if G.table is not None:
        prods = G.table[np.ix_(ids, ids)]
        if not member[prods].all():
            raise NotASubgroup("set is not closed under multiplication")
    else:
        for a in ids:
            for b in ids:
                if not member[G.mul(int(a), int(b))]:
                    raise NotASubgroup("set is not closed under multiplication")
    if not member[G.inverse[ids]].all():
        raise NotASubgroup("set is not closed under inversion")
    return ids


def subgroup_table(G: GroupTable, ids: np.ndarray) -> tuple[GroupTable, np.ndarray]:
    """Reindex a subgroup as its own GroupTable; returns (table, embedding)."""
    ids = check_subgroup(G, ids)
    k = len(ids)
    pos = -np.ones(G.order, dtype=np.int64)
    pos[ids] = np.arange(k)
    if G.table is not None:
        table = pos[G.table[np.ix_(ids, ids)]].astype(np.int32)
    else:
        table = np.array(
            [[pos[G.mul(int(a), int(b))] for b in ids] for a in ids], dtype=np.int32
        )
    inverse = pos[G.inverse[ids]].astype(np.int32)
    sub = GroupTable(
        k,
        lambda a: G.label(ids[a]),
        list(range(k)),
        f"subgroup({G.family_tag})",
        table,
        inverse,
        meta={"parent_ids": ids},
    )
    return sub, ids


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def verify_group_axioms(G: GroupTable) -> dict:
    """Check associativity, identity, inverses, and generator closure.

    With a dense table, associativity is exact by Light's test: (x*s)*y =
    x*(s*y) for every generator s and all x, y (Clifford & Preston, The
    Algebraic Theory of Semigroups, vol. 1).  The elements a with
    (x*a)*y = x*(a*y) for all x, y are closed under products, so once the
    generators reach every element the law holds for all triples.  Without
    a table, the same test would cost |S|*n^2 Python products (about 50M
    for S7), so ASSOC_TRIPLES seeded random triples are checked instead.
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
        for _ in range(checked):
            a, b, c = (int(x) for x in rng.integers(0, n, size=3))
            if G.mul(G.mul(a, b), c) != G.mul(a, G.mul(b, c)):
                raise NonGroup("associativity failed on a sampled triple")
        for a in range(n):
            if G.mul(a, 0) != a or G.mul(0, a) != a or G.mul(a, G.inv(a)) != 0:
                raise NonGroup("identity/inverse axiom failed")
    reached = len(subgroup_closure(G, G.generators))
    if reached != n:
        raise NonGroup(f"generators reach {reached} of {n} elements")
    return {"order": n, "associativity_exhaustive": exhaustive, "triples": checked}

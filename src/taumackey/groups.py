"""Finite group construction: Cayley closure, builtin families, products.

Elements of a constructed group are dense integer ids ``0..order-1`` with
id 0 always the identity.  Every group is built the same way, from the
right-multiplication columns x -> x*s of its generators s, and multiplies
one way, by ``GroupTable.mul``.  A breadth-first search over the generators,
their inverses and the shortcut moves by their 2^j-th powers (each column
squared from the last) gives each element a shallow Cayley word, and a
product walks one word, one gather per letter: 7 letters at most on Z20000
and D10000, 6 on D1000, 18 on S7.  No multiplication table is kept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ClosureCapExceeded,
    InvalidMap,
    NonGroup,
    NotASubgroup,
    UnknownFamily,
)

if TYPE_CHECKING:  # pragma: no cover
    from .morphisms import GroupMap

ORDER_CAP = 20000
# largest degree of a permutation group given by generators: closure memory
# grows with the degree before the order cap can refuse
DEGREE_CAP = 1000


class GroupTable:
    """A finite group over element ids 0..order-1."""

    def __init__(
        self,
        order: int,
        label_of: Callable[[int], str],
        generators: list[int],
        family_tag: str,
        columns: np.ndarray,
        elements: list | None = None,
        element_index: dict | None = None,
        meta: dict | None = None,
    ):
        """``columns[i]`` is the permutation x -> x*generators[i] of all ids.

        These columns are all that is kept of the law: the Cayley search
        tree is built from them, and every product walks its words.
        """
        self.order = order
        self._label_of = label_of
        self._labels: list[str] | None = None
        self.generators = generators
        self.family_tag = family_tag
        self.elements = elements
        self._element_index = element_index
        self.meta = meta or {}
        self._caches: dict = {}
        columns = np.asarray(columns, dtype=np.int64).reshape(len(generators), order)
        self._cayley_words(columns)
        self.inverse = self._walk(0, np.arange(order)).astype(np.int32)

    def _cayley_words(self, columns: np.ndarray):
        """Breadth-first search from the identity over the moves x -> x*m,
        m a generator, a generator's inverse, or a shortcut m^(2^j) of one
        of those with 2^j < order.

        Each element other than the identity gets a parent and the move
        that reaches it from there, so its Cayley word is read off by
        walking up to the root.  The shortcuts make the words shallow: a
        power of a generator is a few squares, not one letter per factor.
        """
        n = self.order
        moves: list[int] = []
        cols: list[np.ndarray] = []
        for s, col in zip(self.generators, columns):
            if s != 0 and s not in moves:
                moves.append(s)
                cols.append(col)
        for col in list(cols):
            back = np.argsort(col)  # y -> y*s^-1, so back[0] = s^-1
            if not np.array_equal(col[back], np.arange(n)):
                raise NonGroup("right multiplication by a generator is not a bijection")
            if back[0] != 0 and back[0] not in moves:
                moves.append(int(back[0]))
                cols.append(back)
        # shortcut m^(2^j) squares the column of m^(2^(j-1)), its half; a
        # chain stops at the identity or at an element that is a move already.
        # Shortcuts follow the other moves; half[i] is the i-th one's half.
        half: list[int] = []
        for at in range(len(moves)):
            power = 2
            while power < n and (col := cols[at][cols[at]])[0] != 0 and col[0] not in moves:
                moves.append(int(col[0]))
                cols.append(col)
                half.append(at)
                at, power = len(moves) - 1, 2 * power
        cols = np.array(cols, dtype=np.int64).reshape(len(moves), n)
        parent = np.full(n, -1, dtype=np.int64)
        parent[0] = 0
        step = np.full(n, len(moves), dtype=np.int64)  # the root's is the identity
        depth = np.zeros(n, dtype=np.int64)
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            # each new element's parent and move: its first hit, move-major
            found, first = np.unique(cols[:, frontier], return_index=True)
            fresh = parent[found] < 0
            found = found[fresh]
            step[found], at = np.divmod(first[fresh], frontier.size)
            parent[found] = frontier[at]
            depth[found] = depth[frontier[0]] + 1
            frontier = found
        reached = int((parent >= 0).sum())
        if reached != n:
            raise NonGroup(f"generators reach {reached} of {n} elements")
        # a walk undoes one move per step: x -> x*m^-1, by the inverse column
        undo = np.empty_like(cols)
        np.put_along_axis(undo, cols, np.arange(n)[None, :], axis=1)
        self._undo = np.concatenate([undo.ravel(), np.arange(n)])
        self._undo_at = step * n
        self._moves = np.array(moves, dtype=np.int64)
        self._half = half
        self._step = step
        self._parent = parent
        self._depth = depth

    def _walk(self, x, w):
        """x * w^-1 for broadcastable id arrays: if w = p*m then
        x * w^-1 = (x * m^-1) * p^-1, so walk up w's Cayley word.  The
        identity's step undoes nothing, so there is always one step."""
        for _ in range(max(1, int(self._depth[w].max(initial=0)))):
            x = self._undo[self._undo_at[w] + x]
            w = self._parent[w]
        return x

    def along_words(self, start, values, step) -> np.ndarray:
        """Evaluate data along every element's Cayley word, parents first.

        ``values[i]`` is a permutation attached to ``generators[i]``; a move
        by a generator's inverse gets the inverse permutation, and a
        shortcut move the square v[v] of its half's value v.  Returns out with
        out[0] = start and out[p*m] = step(out[p], value of m) for each edge
        p -> p*m of the search tree.
        """
        gens = self.generators
        by_move = [values[gens.index(m)] if m in gens
                   else np.argsort(values[gens.index(int(self.inverse[m]))])
                   for m in self._moves[:len(self._moves) - len(self._half)].tolist()]
        for h in self._half:
            by_move.append(by_move[h][by_move[h]])
        start = np.asarray(start)
        out = np.empty((self.order, *start.shape), dtype=start.dtype)
        out[0] = start
        walk = np.argsort(self._depth, kind="stable")[1:]  # level by level
        for j, p, m in zip(walk.tolist(), self._parent[walk].tolist(),
                           self._step[walk].tolist()):
            out[j] = step(out[p], by_move[m])
        return out

    # -- arithmetic ---------------------------------------------------------

    def mul(self, a, b):
        """a*b for ids or broadcastable id arrays, as int64: a walk of
        b^-1's Cayley word from a, one gather per letter."""
        return self._walk(a, self.inverse[b])

    def right_mul_map(self, s: int) -> np.ndarray:
        """The permutation x -> x*s of all element ids."""
        return self.mul(np.arange(self.order), s)

    def conj_map(self, s: int) -> np.ndarray:
        """The permutation x -> s*x*s^-1 of all element ids (a row per s
        when s is a column of ids)."""
        return self.mul(self.mul(s, np.arange(self.order)), self.inverse[s])

    def generator_conj_maps(self) -> np.ndarray:
        key = "generator_conj_maps"
        if key not in self._caches:
            self._caches[key] = self.conj_map(np.array(self.generators or [0])[:, None])
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
        a string is parsed, never looked up in the label list.  A boolean,
        or anything else that is not an element of the group, raises
        InvalidMap.
        """
        if isinstance(what, bool):
            raise InvalidMap(f"no element matching {what!r}")
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
        try:
            return self._element_index[key]
        except (KeyError, TypeError):  # no concrete elements, or unhashable
            raise InvalidMap(f"no element matching {what!r}") from None

    def is_abelian(self) -> bool:
        """Whether conjugation by every generator fixes every element."""
        return bool((self.generator_conj_maps() == np.arange(self.order)).all())


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
    """Parse one-line notation of disjoint cycles on points 1..degree into a
    0-based tuple."""
    if not isinstance(text, str):
        raise InvalidMap(f"a permutation must be a cycle string, got {text!r}")
    text = text.strip()
    perm = list(range(degree))
    if text in ("", "e", "()", "id"):
        return tuple(perm)
    if text.count("(") == 0 or text.count("(") != text.count(")"):
        raise InvalidMap(f"bad cycle notation: {text!r}")
    moved: set[int] = set()
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
        if moved.intersection(pts):
            raise InvalidMap(f"cycles of {text!r} are not disjoint")
        moved.update(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


# ---------------------------------------------------------------------------
# Cayley closure
# ---------------------------------------------------------------------------

def enumerate_from_generators(
    generators: Sequence,
    compose: Callable,
    identity,
    label: Callable = str,
    family_tag: str = "generators",
    cap: int = ORDER_CAP,
    meta: dict | None = None,
) -> GroupTable:
    """Close a set of concrete elements under composition into a GroupTable.

    Elements must be hashable and compose associatively.  The closure runs
    breadth-first from ``identity``, so the identity is id 0; an identity
    that does not fix every generator on both sides raises NonGroup.
    """
    seeds = list(dict.fromkeys(generators))  # repeats dropped, order kept
    if not seeds:
        raise NonGroup("generator list is empty")
    if not all(compose(identity, g) == g == compose(g, identity) for g in seeds):
        raise NonGroup("the identity does not fix every generator")

    index: dict = {identity: 0}
    elements: list = [identity]
    # breadth-first: element i is expanded by every generator exactly once,
    # in discovery order, so right_by[s][i] = id of elements[i] * seeds[s]
    right_by: list[list[int]] = [[] for _ in seeds]
    for x in elements:  # the list grows as elements are found
        for s, gen in enumerate(seeds):
            c = compose(x, gen)
            j = index.get(c)
            if j is None:
                j = len(elements)
                if j >= cap:
                    raise ClosureCapExceeded(
                        f"closure exceeded cap {cap} (tag {family_tag})"
                    )
                index[c] = j
                elements.append(c)
            right_by[s].append(j)
    return GroupTable(
        len(elements),
        lambda a: label(elements[a]),
        [index[g] for g in seeds],
        family_tag,
        np.array(right_by, dtype=np.int64),
        elements=elements,
        element_index=index,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------

def cyclic(n: int, cap: int = ORDER_CAP) -> GroupTable:
    if n < 1:
        raise UnknownFamily(f"cyclic({n})")
    if n > cap:
        raise ClosureCapExceeded(f"cyclic({n}) has order {n} > cap {cap}")
    return _affine_group([(1 % n, 0)], n, f"cyclic({n})", cap)


def symmetric(n: int, cap: int = ORDER_CAP) -> GroupTable:
    if n < 1:
        raise UnknownFamily(f"symmetric({n})")
    if _product_over(2, n, cap):
        raise ClosureCapExceeded(f"symmetric({n}) has order {n}! > cap {cap}")
    if n == 1:
        return cyclic(1)
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    gens = [swap] if n == 2 else [swap, cycle]
    return enumerate_from_generators(
        gens, perm_compose, tuple(range(n)), perm_label, f"symmetric({n})", cap,
        meta={"degree": n},
    )


def alternating(n: int, cap: int = ORDER_CAP) -> GroupTable:
    if n < 1:
        raise UnknownFamily(f"alternating({n})")
    if _product_over(3, n, cap):
        raise ClosureCapExceeded(f"alternating({n}) has order {n}!/2 > cap {cap}")
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
        gens, perm_compose, tuple(range(n)), perm_label, f"alternating({n})", cap,
        meta={"degree": n},
    )


def dihedral(n: int, cap: int = ORDER_CAP) -> GroupTable:
    """Symmetry group of the n-gon, order 2n."""
    if n < 1:
        raise UnknownFamily(f"dihedral({n})")
    if 2 * n > cap:
        raise ClosureCapExceeded(f"dihedral({n}) has order {2 * n} > cap {cap}")
    if n == 1:
        g = symmetric(2)
        g.family_tag = "dihedral(1)"
        return g
    if n == 2:
        # 2-gon symmetries degenerate as permutations; use two disjoint swaps
        a = (1, 0, 2, 3)
        b = (0, 1, 3, 2)
        return enumerate_from_generators(
            [a, b], perm_compose, (0, 1, 2, 3), perm_label, "dihedral(2)", cap,
            meta={"degree": 4},
        )
    return _affine_group([(1, 0), (0, 1)], n, f"dihedral({n})", cap)


def _product_over(lo: int, hi: int, cap: int) -> bool:
    """Whether lo * (lo+1) * ... * hi > cap, stopping once it is."""
    product = 1
    for k in range(lo, hi + 1):
        product *= k
        if product > cap:
            return True
    return False


# The cyclic and dihedral families as affine maps of Z/n: the pair (a, b)
# is i -> (-1)^b * i + a mod n, so the rotation is (1, 0) and the reflection
# i -> -i is (0, 1).  A product costs O(1) instead of an n-point tuple; the
# permutation is formed only to label an element or to look one up.

def _affine_compose(p: tuple, q: tuple, n: int) -> tuple:
    """The pair of p*q, read as perm_compose reads tuples: p(q(i))."""
    (a1, b1), (a2, b2) = p, q
    return ((a1 - a2 if b1 else a1 + a2) % n, b1 ^ b2)


def _affine_perm(x: tuple, n: int) -> tuple:
    a, b = x
    sign = -1 if b else 1
    return tuple((sign * i + a) % n for i in range(n))


class _AffineIndex(dict):
    """Pair -> id, looked up by the n-point permutation a pair denotes."""

    def __init__(self, index: dict, n: int):
        super().__init__(index)
        self.n = n

    def __getitem__(self, perm):
        n = self.n
        if isinstance(perm, tuple) and len(perm) == n and perm[0] in range(n):
            # p(0) = a and p(1) = (-1)^b + a; for n <= 2 only b = 0 is a member
            pair = (perm[0], int(n > 2 and perm[1] != (perm[0] + 1) % n))
            if _affine_perm(pair, n) == perm:
                return super().__getitem__(pair)
        raise KeyError(perm)


def _affine_group(gens: list, n: int, tag: str, cap: int) -> GroupTable:
    g = enumerate_from_generators(
        gens,
        lambda p, q: _affine_compose(p, q, n),
        (0, 0),
        lambda x: perm_label(_affine_perm(x, n)),
        tag,
        cap,
        meta={"degree": n},
    )
    g._element_index = _AffineIndex(g._element_index, n)
    return g


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
        [(1, 1), (1, 2)], _quat_mul, (1, 0), _quat_label, "quaternion8", cap
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
    if n + 1 > cap.bit_length() or 2 ** (n + 1) > cap:
        raise ClosureCapExceeded(f"clifford({n}) has order 2^{n + 1} > cap {cap}")
    gens = [(1, 1 << i) for i in range(n)] + [(-1, 0)]
    return enumerate_from_generators(
        gens,
        clifford_mul,
        (1, 0),
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

    a, b = np.divmod(np.arange(n), n2)
    columns = [g1.mul(a, s) * n2 + b for s in g1.generators]
    columns += [a * n2 + g2.mul(b, s) for s in g2.generators]
    generators = [int(s) * n2 for s in g1.generators] + [int(s) for s in g2.generators]
    tag = f"product({g1.family_tag},{g2.family_tag})"
    return GroupTable(n, label_of, generators, tag, np.array(columns))


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
        if n is not None:
            raise UnknownFamily("family 'quaternion8' takes no parameter n")
        return quaternion8(cap)
    if family in builders:
        if n is None:
            raise UnknownFamily(f"family {family!r} needs parameter n")
        return builders[family](n, cap)
    raise UnknownFamily(f"unknown family {family!r}")


def construct_semidirect_with_involution(
    N: GroupTable, tau: "GroupMap", cap: int = ORDER_CAP
) -> GroupTable:
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
    if order > cap:
        raise ClosureCapExceeded(f"semidirect order {order} > cap {cap}")
    alpha = tau.images[N.inverse]  # n -> tau(n^-1), an automorphism
    ids = np.arange(n)
    # (a, e)*(s, 0) = (a * alpha^e(s), e) and (a, e)*h = (a, e+1 mod 2)
    columns = [np.concatenate([N.mul(ids, s), N.mul(ids, alpha[s]) + n])
               for s in N.generators]
    columns.append((np.arange(order) + n) % order)

    def label_of(a):
        if a < n:
            return N.label(a)
        return "h" if a == n else f"h*{N.label(a - n)}"

    h = n
    g = GroupTable(
        order,
        label_of,
        list(N.generators) + [h],
        f"semidirect({N.family_tag})",
        np.array(columns),
        meta={"h": h},
    )
    if g.mul(h, h) != 0:
        raise NonGroup("semidirect relation h*h = 1 failed")
    if not np.array_equal(g.mul(g.mul(h, ids), h), N.inverse[tau.images]):
        raise NonGroup("semidirect relation h*n*h = tau(n)^-1 failed")
    return g


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def subgroup_closure(G: GroupTable, gen_ids: Iterable[int]) -> np.ndarray:
    """Sorted ids of the subgroup generated by gen_ids."""
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
        raise NotASubgroup("subgroup must contain the identity (id 0)")
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
                raise NotASubgroup("set is not closed under multiplication")
            spanned[found] = True
            found = G.mul(found[:, None], gens).ravel()
    return ids, gens

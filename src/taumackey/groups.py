"""Finite group construction: Cayley closure, builtin families, products.

Elements of a constructed group are dense integer ids ``0..order-1`` with
id 0 always the identity.  Every group is built the same way, from the
right-multiplication columns x -> x*s of its generators s, and multiplies
one way, by ``GroupTable.mul``.  A breadth-first search over the generators,
their inverses and the shortcut moves by their 2^j-th powers (each column
squared from the last) gives each element a shallow Cayley word, and a
product walks one word, one gather per letter: 7 letters at most on Z20000
and D10000, 6 on D1000, 18 on S7.  No multiplication table is kept.

Every family searched for its elements closes by one loop, ``_close``: a
breadth-first search one level at a time over rows of an array, keyed by
their bytes, each new row taking the next id in order of first hit.  A
family supplies only the rows' products: permutation groups and Q8 (as the
left-regular permutations of its eight elements) take x*s as the row x[s],
and the signed-subset (Clifford) family flips bits of one-code rows.  The
cyclic and dihedral families need no search: their ids are the search's
order in closed form, the rotation by a at id a, and an n-gon symmetry at
its rank by level and slot of first hit.

``GroupTable.element_id`` is the one lookup of an id, a label, or in a
permutation group a cycle string or a tuple of its points.  A family gives
it ``find``, from a permutation to an id: the searched families read the
closure's index of row bytes, and the cyclic and dihedral families decode
p(0) and p(1) into the one pair p can be.

Subgroups are orbits of the kernel, never searched level by level: the
subgroup generated by some ids is the identity's coset under right
multiplication by them (``gelfand.build_coset_space``), and
``spanning_generators`` finds generators for many id sets at once, one
kernel call per doubling round.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import ORDER_CAP
from ._kernels import orbit_labels
from .errors import SpecError

if TYPE_CHECKING:  # pragma: no cover
    from .morphisms import GroupMap

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
        elements: np.ndarray | None = None,
        find: Callable[[tuple], int | None] | None = None,
        meta: dict | None = None,
    ):
        """``columns[i]`` is the permutation x -> x*generators[i] of all ids.

        These columns are all that is kept of the law: the Cayley search
        tree is built from them, and every product walks its words.  A
        permutation group (one with ``meta["degree"]``) gives ``find``, the
        id of a permutation tuple of its points, or None if it is no member.
        """
        self.order = order
        self._label_of = label_of
        self._labels: list[str] | None = None
        self._label_ids: dict[str, int] | None = None
        self.generators = generators
        self.family_tag = family_tag
        self.elements = elements
        self._find = find
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
        cols: list[np.ndarray] = []  # of the generator and inverse moves
        for s, col in zip(self.generators, columns):
            if s != 0 and s not in moves:
                moves.append(s)
                cols.append(col)
        for col in list(cols):
            back = np.argsort(col)  # y -> y*s^-1, so back[0] = s^-1
            if not np.array_equal(col[back], np.arange(n)):
                raise SpecError("right multiplication by a generator is not a bijection")
            if back[0] != 0 and back[0] not in moves:
                moves.append(int(back[0]))
                cols.append(back)
        # shortcut m^(2^j) squares the column of m^(2^(j-1)), its half; a
        # chain stops at the identity or at an element that is a move already.
        # Shortcuts follow the other moves; half[i] is the i-th one's half.
        # Only a chain's last column is held until the moves are counted.
        half: list[int] = []
        for at in range(len(cols)):
            power, col = 2, cols[at]
            while power < n and (col := col[col])[0] != 0 and col[0] not in moves:
                moves.append(int(col[0]))
                half.append(at)
                at, power = len(moves) - 1, 2 * power
        # one buffer holds every move's column, then (inverted in place)
        # every move's undo column and, last, the identity's
        buf = np.empty((len(moves) + 1, n), dtype=np.int64)
        for i, col in enumerate(cols):
            buf[i] = col
        for i, h in enumerate(half, start=len(cols)):
            np.take(buf[h], buf[h], out=buf[i])
        fwd = buf[:len(moves)]
        parent = np.full(n, -1, dtype=np.int64)
        parent[0] = 0
        step = np.full(n, len(moves), dtype=np.int64)  # the root's is the identity
        depth = np.zeros(n, dtype=np.int64)
        frontier, level = np.zeros(1, dtype=np.int64), 0
        while frontier.size:
            # each new element's parent and move: its first hit, move-major.
            # One move hits each element at most once, so the first move
            # that reaches an element claims it, whatever the frontier order.
            level += 1
            found = [frontier[:0]]  # none, if there are no moves
            for m, col in enumerate(fwd):
                hit = col[frontier]
                fresh = parent[hit] < 0
                hit = hit[fresh]
                parent[hit] = frontier[fresh]
                step[hit] = m
                found.append(hit)
            frontier = np.concatenate(found)
            depth[frontier] = level
        reached = int((parent >= 0).sum())
        if reached != n:
            raise SpecError(f"generators reach {reached} of {n} elements")
        # a walk undoes one move per step: x -> x*m^-1, by the inverse column
        ids, inverse = np.arange(n), np.empty(n, dtype=np.int64)
        for row in fwd:
            inverse[row] = ids
            row[:] = inverse
        buf[-1] = ids
        self._undo = buf.ravel()
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
        p -> p*m of the search tree.  The edges of one level and one move are
        stepped at once: ``step`` gets their out[p] stacked along a new first
        axis, and must act on each of them alike.
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
        # every element but the root, level by level and move by move
        key = self._depth * (len(by_move) + 1) + self._step
        walk = np.argsort(key, kind="stable")[1:]
        for nodes in np.split(walk, np.flatnonzero(np.diff(key[walk])) + 1) if walk.size else []:
            out[nodes] = step(out[self._parent[nodes]], by_move[self._step[nodes[0]]])
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
        when s is a column of ids).  With R the column x -> x*s^-1, that is
        R[inverse[R[inverse]]], so only s's own word is walked."""
        right = self._walk(np.arange(self.order), s)
        return np.take_along_axis(right, self.inverse[right[..., self.inverse]], axis=-1)

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
        """Resolve an id, a label, a cycle-notation string or a permutation
        tuple to an id.

        Permutation groups (those with a degree) label by cycle notation, so
        a string is parsed, never looked up in the label list, and ``find``
        looks up the permutation, a tuple of real numbers that sorts to
        0..degree-1.  A boolean, or anything else that names no element of
        the group, raises SpecError.
        """
        if isinstance(what, (int, np.integer)) and not isinstance(what, bool):
            i = int(what)
            if not 0 <= i < self.order:
                raise SpecError(f"element id {i} out of range for order {self.order}")
            return i
        degree, found = self.meta.get("degree"), None
        if isinstance(what, str) and degree:
            found = self._find(parse_cycles(what, degree))
        elif isinstance(what, str):
            if self._label_ids is None:  # built once; a repeated label keeps its first id
                self._label_ids = {label: i for i, label in reversed(list(enumerate(self.labels)))}
            found = self._label_ids.get(what)
        elif isinstance(what, tuple) and degree and len(what) == degree \
                and all(issubclass(t, numbers.Real) for t in set(map(type, what))) \
                and sorted(what) == list(range(degree)):
            found = self._find(what)
        if found is None:
            raise SpecError(f"no element matching {what!r}")
        return found

    def is_abelian(self) -> bool:
        """Whether conjugation by every generator fixes every element."""
        return bool((self.generator_conj_maps() == np.arange(self.order)).all())


# ---------------------------------------------------------------------------
# permutation helpers
# ---------------------------------------------------------------------------

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
        raise SpecError(f"a permutation must be a cycle string, got {text!r}")
    text = text.strip()
    perm = list(range(degree))
    if text in ("", "e", "()", "id"):
        return tuple(perm)
    if text.count("(") == 0 or text.count("(") != text.count(")"):
        raise SpecError(f"bad cycle notation: {text!r}")
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
            raise SpecError(f"bad cycle {chunk!r}: points must be integers") from None
        if any(not 1 <= t <= degree for t in pts) or len(set(pts)) != len(pts):
            raise SpecError(f"bad cycle {chunk!r} for degree {degree}")
        if moved.intersection(pts):
            raise SpecError(f"cycles of {text!r} are not disjoint")
        moved.update(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


# ---------------------------------------------------------------------------
# Cayley closure
# ---------------------------------------------------------------------------

# bytes of candidate rows formed at once: a degree-1000 permutation row is
# 2 KB, so a whole level of candidates could take hundreds of megabytes
_BLOCK_BYTES = 1 << 22


def _close(identity: np.ndarray, gens: np.ndarray, right_mul: Callable, tag: str, cap: int):
    """Close rows under right multiplication by k generators, one
    breadth-first level at a time, from the row ``identity``.

    ``right_mul(x)`` gives, for rows x of shape (m, w), the (m, k, w)
    products x*s by the k generators ``gens``, element-major and
    generator-minor.  Each row is keyed by its bytes.  A level's candidates
    are formed at most ``_BLOCK_BYTES`` at a time.  Each new row takes the
    next id in order of first hit, so element i is expanded in id order and
    the identity is id 0.  Returns (rows by id, the (k, order)
    right-multiplication columns, generator ids, row bytes -> id).
    """
    void = np.dtype((np.void, identity.nbytes))
    block = max(1, _BLOCK_BYTES // (len(gens) * identity.nbytes))
    index = {identity.tobytes(): 0}
    right: list[int] = []
    level = list(index)
    while level:
        new: list = []
        for lo in range(0, len(level), block):
            x = np.frombuffer(b"".join(level[lo:lo + block]), identity.dtype)
            keys = right_mul(x.reshape(-1, identity.size)).view(void).ravel().tolist()
            fresh = [key for key in dict.fromkeys(keys) if key not in index]
            if len(index) + len(fresh) > cap:
                raise SpecError(f"closure exceeded cap {cap} (tag {tag})")
            index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
            new += fresh
            right += map(index.__getitem__, keys)
        level = new
    rows = np.frombuffer(b"".join(index), identity.dtype).reshape(len(index), identity.size)
    columns = np.array(right, dtype=np.int64).reshape(len(index), -1).T
    return rows, columns, [index[g.tobytes()] for g in gens], index


def _permutation_group(perms: Sequence[tuple], degree: int, tag: str = "generators",
                       cap: int = ORDER_CAP) -> GroupTable:
    """The group generated by permutation tuples of 0..degree-1, closed as
    int16 rows: x*s is the row x[s], as (x*s)(i) = x(s(i)).  Labels read
    the rows and lookups the closure's index of row bytes, so no element
    becomes a tuple of Python ints."""
    seeds = list(dict.fromkeys(perms))  # repeats dropped, order kept
    if not seeds:
        raise SpecError("generator list is empty")
    gens = np.array(seeds, dtype=np.int16)
    rows, columns, gen_ids, index = _close(
        np.arange(degree, dtype=np.int16), gens, lambda x: x.take(gens, axis=1), tag, cap)
    return GroupTable(len(rows), lambda a: perm_label(rows[a].tolist()), gen_ids, tag,
                      columns, elements=rows,
                      find=lambda perm: index.get(np.array(perm, dtype=np.int16).tobytes()),
                      meta={"degree": degree})


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------

def cyclic(n: int, cap: int = ORDER_CAP) -> GroupTable:
    if n < 1:
        raise SpecError(f"cyclic({n}): n must be at least 1")
    if n > cap:
        raise SpecError(f"cyclic({n}) has order {n} > cap {cap}")
    # the search from the rotation 1 meets rotation a at step a, so a is
    # its id and x*1 = x+1: no closure is needed
    return GroupTable(n, lambda a: perm_label(_affine_perm((a, 0), n)), [1 % n],
                      f"cyclic({n})", (np.arange(n) + 1) % n, find=_affine_find(n, range(n)),
                      meta={"degree": n})


def symmetric(n: int, cap: int = ORDER_CAP) -> GroupTable:
    if n < 1:
        raise SpecError(f"symmetric({n}): n must be at least 1")
    if _product_over(2, n, cap):
        raise SpecError(f"symmetric({n}) has order {n}! > cap {cap}")
    # a transposition and the n-cycle; for n <= 2 the n-cycle alone
    cycle = (*range(1, n), 0)
    gens = [(1, 0, *range(2, n)), cycle] if n > 2 else [cycle]
    return _permutation_group(gens, n, f"symmetric({n})", cap)


def alternating(n: int, cap: int = ORDER_CAP) -> GroupTable:
    if n < 1:
        raise SpecError(f"alternating({n}): n must be at least 1")
    if _product_over(3, n, cap):
        raise SpecError(f"alternating({n}) has order {n}!/2 > cap {cap}")
    # the 3-cycles (1 2 k); for n <= 2 the identity
    gens = []
    for k in range(2, n):
        p = list(range(n))
        p[0], p[1], p[k] = p[1], p[k], p[0]
        gens.append(tuple(p))
    return _permutation_group(gens or [tuple(range(n))], n, f"alternating({n})", cap)


def dihedral(n: int, cap: int = ORDER_CAP) -> GroupTable:
    """Symmetry group of the n-gon, order 2n."""
    if n < 1:
        raise SpecError(f"dihedral({n}): n must be at least 1")
    if 2 * n > cap:
        raise SpecError(f"dihedral({n}) has order {2 * n} > cap {cap}")
    if n <= 2:
        # the symmetries of the 1-gon and 2-gon degenerate as permutations
        # of its points: one swap of two points, or two disjoint swaps
        gens = [(1, 0)] if n == 1 else [(1, 0, 2, 3), (0, 1, 3, 2)]
        return _permutation_group(gens, 2 * n, f"dihedral({n})", cap)
    # the search from the identity by r = (1, 0), then s = (0, 1), meets
    # level L at (L, 0), (L-1, 1), (n-L+1, 1), (n-L+2, 0) in that order; a
    # pair's id is its rank by 4*level + slot at its first hit
    a = np.arange(n)
    rotation = np.where(2 * a <= n + 2, 4 * a, 4 * (n - a + 2) + 3)
    reflection = np.where(2 * a <= n, 4 * a + 5, 4 * (n - a + 1) + 2)
    codes = np.argsort(np.concatenate([rotation, reflection]))  # a + n*b by id
    id_of = np.empty(2 * n, dtype=np.int64)
    id_of[codes] = np.arange(2 * n)
    b, a = np.divmod(codes, n)
    # x*r = (a -+ 1, b) and x*s = (a, 1 - b)
    columns = id_of[np.stack([(a + 1 - 2 * b) % n + n * b, a + n * (1 - b)])]
    return GroupTable(2 * n, lambda x: perm_label(_affine_perm((int(a[x]), int(b[x])), n)),
                      [int(id_of[1]), int(id_of[n])], f"dihedral({n})", columns,
                      find=_affine_find(n, id_of), meta={"degree": n})


def _product_over(lo: int, hi: int, cap: int) -> bool:
    """Whether lo * (lo+1) * ... * hi > cap, 1 > cap if lo > hi, stopping once it is."""
    product, k = 1, lo
    while product <= cap and k <= hi:
        product, k = product * k, k + 1
    return product > cap


# The cyclic and dihedral families as affine maps of Z/n: the pair (a, b)
# is i -> (-1)^b * i + a mod n, so the rotation is (1, 0) and the reflection
# i -> -i is (0, 1).  The permutation is formed only to label an element or
# to look one up.

def _affine_perm(x: tuple, n: int) -> tuple:
    a, b = x
    return (*range(a, -1, -1), *range(n - 1, a, -1)) if b else (*range(a, n), *range(a))


def _affine_find(n: int, id_of) -> Callable[[tuple], int | None]:
    """Look an n-point permutation p up as the one pair it can be, (p(0), b
    with p(1) = (-1)^b + p(0)); ``id_of[a + n*b]`` is the id of (a, b), and
    the cyclic family, whose ``id_of`` has n entries, has b = 0 only."""
    def find(perm):
        a = int(perm[0])
        b = int(len(id_of) > n and perm[1] != (a + 1) % n)
        if _affine_perm((a, b), n) == perm:
            return int(id_of[a + n * b])
        return None
    return find


# Q8's elements 1, -1, i, -i, j, -j, k, -k by code 0..7
_QUAT_LABELS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def quaternion8(cap: int = ORDER_CAP) -> GroupTable:
    """Q8 closed as the left-regular permutations of its eight codes: the
    row of x sends code c to x*c, so row[0] is x's own code, and x*s is the
    row x[s].  The generators are i and j."""
    gens = np.array([[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]], dtype=np.int16)
    rows, columns, gen_ids, _ = _close(
        np.arange(8, dtype=np.int16), gens, lambda x: x.take(gens, axis=1), "quaternion8", cap)
    return GroupTable(len(rows), lambda a: _QUAT_LABELS[rows[a, 0]], gen_ids, "quaternion8",
                      columns, elements=rows)


def _clifford_label(code: int, n: int) -> str:
    a = code >> 1
    sign = "-" if code & 1 else ""
    if a == 0:
        return sign + "1"
    pts = [str(i + 1) for i in range(n) if a >> i & 1]
    body = "".join(pts) if n <= 9 else "(" + ",".join(pts) + ")"
    return f"{sign}g{body}"


def clifford(n: int, cap: int = ORDER_CAP) -> GroupTable:
    """The signed-subset group of order 2^(n+1): elements +-g_A, A within 1..n.

    The builtin order claim for this family in some sources is 2^n-flavored;
    the element model has 2^(n+1) members and that is what we enumerate.
    Element +-g_A is the code 2A + (1 if negative), A a bitmask.  Right
    multiplication by g_i flips bit i of A, and flips the sign once for each
    point of A above i, as g_i moves past it; by -1 it flips the sign bit.
    """
    if n < 1:
        raise SpecError(f"clifford({n}): n must be at least 1")
    if n + 1 > cap.bit_length() or 2 ** (n + 1) > cap:
        raise SpecError(f"clifford({n}) has order 2^{n + 1} > cap {cap}")
    points = np.arange(n)

    def right_mul(x):
        a, sign = x >> 1, x & 1
        passed = np.bitwise_count(a >> (points + 1)) & 1
        by_g = ((a ^ 1 << points) << 1) | (sign ^ passed)
        return np.concatenate([by_g, x ^ 1], axis=1)[:, :, None]

    gens = np.array([2 << i for i in range(n)] + [1], dtype=np.int64)[:, None]
    rows, columns, gen_ids, _ = _close(
        np.zeros(1, dtype=np.int64), gens, right_mul, f"clifford({n})", cap)
    codes = rows[:, 0]
    return GroupTable(len(codes), lambda a: _clifford_label(int(codes[a]), n), gen_ids,
                      f"clifford({n})", columns, elements=codes, meta={"clifford_n": n})


def direct_product(g1: GroupTable, g2: GroupTable, cap: int = ORDER_CAP) -> GroupTable:
    """Componentwise product; id of (a, b) is a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    if n > cap:
        raise SpecError(f"direct product order {n} > cap {cap}")

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
            raise SpecError("family 'quaternion8' takes no parameter n")
        return quaternion8(cap)
    if family in builders:
        if n is None:
            raise SpecError(f"family {family!r} needs parameter n")
        return builders[family](n, cap)
    raise SpecError(f"unknown family {family!r}")


def construct_semidirect_with_involution(
    N: GroupTable, tau: "GroupMap", cap: int = ORDER_CAP
) -> GroupTable:
    """Order-2 extension of N by the automorphism n -> tau(n^-1).

    Elements are pairs (n, e) with id e*|N| + n, so N embeds as ids
    0..|N|-1 and h = (1, 1) has id |N|.  The defining relations h*h = 1 and
    h*n*h = tau(n)^-1 are asserted after construction.
    """
    if tau.group is not N:
        raise SpecError("map is attached to a different group")
    if tau.kind != "anti-automorphism" or not tau.involutory:
        raise SpecError("need a validated involutory anti-automorphism")
    n = N.order
    order = 2 * n
    if order > cap:
        raise SpecError(f"semidirect order {order} > cap {cap}")
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
    g = GroupTable(order, label_of, list(N.generators) + [h],
                   f"semidirect({N.family_tag})", np.array(columns))
    if g.mul(h, h) != 0:
        raise SpecError("semidirect relation h*h = 1 failed")
    if not np.array_equal(g.conj_map(h)[:n], N.inverse[tau.images]):
        raise SpecError("semidirect relation h*n*h = tau(n)^-1 failed")
    return g


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def spanning_generators(G: GroupTable, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generators for each row of ``member``, a boolean mask of ids, and
    their spans: (generators, one row per mask padded with the identity,
    and the spans as masks of the same shape).

    The rows are spanned together, one round at a time.  In each round
    every row whose span misses a member adds its smallest such member.
    A subgroup H and an element g outside it give a span holding H and Hg,
    so each round at least doubles the span, and there are at most log2|G|
    rounds.  Each round is one kernel call: it labels G under right
    multiplication by the generators of every open row, row i's states
    offset by i*|G|, and a span is the identity's orbit.  At the end every
    span holds its row, and equals it exactly when the row is a subgroup;
    a span that holds a non-member is for the caller to refuse.
    """
    rows, order = member.shape
    ids = np.arange(order)
    gens = np.zeros((rows, 0), dtype=np.int64)
    spans = np.zeros(member.shape, dtype=bool)
    spans[:, 0] = True
    open_ = np.arange(rows)
    while (rest := member[open_] & ~spans[open_]).any():
        left = rest.any(axis=1)
        open_, rest = open_[left], rest[left]
        gens = np.concatenate([gens, np.zeros((rows, 1), dtype=np.int64)], axis=1)
        gens[open_, -1] = rest.argmax(axis=1)
        distinct, which = np.unique(gens[open_], return_inverse=True)
        offset = np.arange(len(open_))[:, None] * order
        moves = G.mul(ids, distinct[:, None])[which.reshape(len(open_), -1)] + offset[:, :, None]
        labels = orbit_labels(moves.transpose(1, 0, 2).reshape(gens.shape[1], -1))
        spans[open_] = labels.reshape(-1, order) == offset
    return gens, spans

import tracemalloc

import numpy as np
import pytest

from taumackey import ORDER_CAP, _kernels, cli, conjugacy, gelfand, groups, morphisms
from taumackey.errors import BudgetExceeded

from oracles import subgroup_closure


def _reference_labels(moves):
    """Plain BFS reference."""
    n = moves.shape[1]
    labels = -np.ones(n, dtype=np.int64)
    for start in range(n):
        if labels[start] >= 0:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for m in moves:
                for y in (int(m[x]), int(np.flatnonzero(m == x)[0])):
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
        lab = min(comp)
        for x in comp:
            labels[x] = lab
    return labels


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n,m", [(1, 1), (7, 2), (40, 3), (101, 4)])
def test_numpy_path_matches_reference(seed, n, m):
    rng = np.random.default_rng(seed * 1000 + n)
    moves = np.stack([rng.permutation(n) for _ in range(m)])
    got = _kernels.orbit_labels(moves)
    assert np.array_equal(got, _reference_labels(moves))


def test_labels_are_orbit_minima():
    rng = np.random.default_rng(7)
    moves = np.stack([rng.permutation(64) for _ in range(2)])
    labels = _kernels.orbit_labels(moves)
    for rep in np.unique(labels):
        members = np.flatnonzero(labels == rep)
        assert members.min() == rep
        # orbit closed under the moves
        for m in moves:
            assert set(labels[m[members]]) == {rep}


def test_no_moves_gives_singletons():
    out = _kernels.orbit_labels(np.empty((0, 5), dtype=np.int64))
    assert np.array_equal(out, np.arange(5))



def _grid_pair_moves(G):
    """Simultaneous conjugation on G x G, as the pair scan passes it: one
    conjugation map per coordinate."""
    c = G.generator_conj_maps()
    return np.stack([c, c], axis=1)


def _pair_moves(moves):
    """The oracle for moves on the grid {0..n-1}^2: the same moves stacked
    as permutations of the n^2 flat state ids, x*n + y -> left[x]*n + right[y]."""
    n = moves.shape[2]
    flat = moves[:, 0, :, None] * n + moves[:, 1, None, :]
    return flat.reshape(len(moves), n * n)


def _random_pair_moves(n, count, seed):
    """Random pair actions with a different permutation on each side, the
    shape of `gelfand.orbit_analysis`'s twisted action."""
    rng = np.random.default_rng(seed)
    return np.array([[rng.permutation(n), rng.permutation(n)] for _ in range(count)],
                    dtype=np.int64).reshape(count, 2, n)


def _orbit_analysis_moves():
    """The twisted pair action that `gelfand.orbit_analysis` passes: S6 on
    X x X, X the cosets of S3 x S3, with tau inner by the factor swap."""
    G = groups.symmetric(6)
    K = cli.build_subgroup(G, {"generators": ["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"]})
    tau = cli.build_tau(G, {"inner": "(1 4)(2 5)(3 6)"})
    space = gelfand.build_coset_space(G, K)
    gens = np.array(G.generators)
    return np.stack([space.rows(tau.images[G.inverse[gens]]), space.rows(gens)], axis=1)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n,m", [(1, 1), (7, 2), (40, 3), (101, 4), (5000, 2)])
def test_representatives_are_unique_labels_on_random_moves(seed, n, m):
    rng = np.random.default_rng(seed * 1000 + n)
    moves = np.stack([rng.permutation(n) for _ in range(m)])
    labels = _kernels.orbit_labels(moves)
    assert np.array_equal(_kernels.orbit_representatives(labels), np.unique(labels))


@pytest.mark.parametrize("build", [lambda: groups.symmetric(6), lambda: groups.dihedral(50)],
                         ids=["S6", "D50"])
def test_representatives_are_unique_labels_on_pair_moves(build):
    labels = _kernels.orbit_labels(_grid_pair_moves(build()))
    reps = _kernels.orbit_representatives(labels)
    assert np.array_equal(reps, np.unique(labels))
    assert reps.dtype == np.int64


def test_representatives_of_no_moves_are_all_states():
    labels = _kernels.orbit_labels(np.empty((0, 5), dtype=np.int64))
    assert np.array_equal(_kernels.orbit_representatives(labels), np.arange(5))


def _propagation_oracle(moves):
    """The previous kernel: each round one min-propagation sweep over the
    moves and their inverses, then a single ``labels[labels]`` jump.  Moves
    on the grid {0..n-1}^2 run as their flat `_pair_moves`."""
    moves = np.asarray(moves, dtype=np.int64)
    if moves.ndim == 3:
        moves = _pair_moves(moves)
    n = moves.shape[1]
    both = list(moves)
    for m in moves:
        inv = np.empty(n, dtype=np.int64)
        inv[m] = np.arange(n, dtype=np.int64)
        both.append(inv)
    labels = np.arange(n, dtype=np.int64)
    while True:
        prev = labels
        for m in both:
            labels = np.minimum(labels, labels[m])
        labels = np.minimum(labels, labels[labels])
        if np.array_equal(labels, prev):
            return labels


def _shift(n, step):
    return ((np.arange(n) + step) % n)[None, :]


def _s4_wr_z2_k_action():
    """S4 x S4 acting on the two cosets of S4 wr Z2, as `gelfand` passes it."""
    G = cli.build_group({"generators": ["(1 2)", "(1 2 3 4)", "(1 5)(2 6)(3 7)(4 8)"],
                         "degree": 8})
    K = subgroup_closure(
        G, [G.element_id(s) for s in ["(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7 8)"]])
    space = gelfand.build_coset_space(G, K)
    return space.rows(space.subgroup)


def _swaps_and_identities(count, seed):
    rng = np.random.default_rng(seed)
    return np.array([[1, 0], [0, 1]])[rng.integers(0, 2, count)]


def _random_moves(n, count, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n) for _ in range(count)])


PAIR_CASES = {
    "D397 pairs": lambda: _grid_pair_moves(groups.dihedral(397)),
    "D101 pairs": lambda: _grid_pair_moves(groups.dihedral(101)),
    "S6 pairs": lambda: _grid_pair_moves(groups.symmetric(6)),
    "A6xZ2 pairs": lambda: _grid_pair_moves(
        groups.direct_product(groups.alternating(6), groups.cyclic(2))),
    "S6 on X x X, X the cosets of S3 x S3, twisted": _orbit_analysis_moves,
    **{f"random pair action, {count} moves on {n}^2 states, seed {seed}": (
        lambda n=n, count=count, seed=seed: _random_pair_moves(n, count, seed))
       for n, count in [(0, 2), (1, 1), (1, 0), (6, 0), (7, 1), (30, 1), (40, 2), (150, 3)]
       for seed in range(2)},
}


ORACLE_CASES = {
    **PAIR_CASES,
    "Z10007 shift up": lambda: _shift(10007, 1),
    "Z10007 shift down": lambda: _shift(10007, -1),
    "S4 x S4 on the 2 cosets of S4 wr Z2 (576 moves)": _s4_wr_z2_k_action,
    "576 swaps or identities on 2 states": lambda: _swaps_and_identities(576, 3),
    "identity moves": lambda: np.tile(np.arange(9), (3, 1)),
    "no moves": lambda: np.empty((0, 9), dtype=np.int64),
    "no states": lambda: np.empty((3, 0), dtype=np.int64),
    "no moves, no states": lambda: np.empty((0, 0), dtype=np.int64),
    **{f"random, {count} moves on {n} states, seed {seed}": (
        lambda n=n, count=count, seed=seed: _random_moves(n, count, seed))
       for n, count in [(2, 1), (30, 1), (500, 2), (3000, 3), (20000, 5)]
       for seed in range(4)},
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_matches_the_propagation_oracle(case):
    moves = ORACLE_CASES[case]()
    got = _kernels.orbit_labels(moves)
    assert got.dtype == np.int32
    assert np.array_equal(got, _propagation_oracle(moves))


@pytest.mark.parametrize("case", PAIR_CASES)
def test_grid_labels_match_the_flat_pair_moves(case):
    moves = PAIR_CASES[case]()
    n = moves.shape[2]
    got = _kernels.orbit_labels(moves)
    assert got.shape == (n * n,)
    assert np.array_equal(got, _kernels.orbit_labels(_pair_moves(moves)))


def test_every_state_id_fits_int32():
    assert ORDER_CAP**2 < 2**31


def test_a_grid_past_int32_is_refused_before_any_state():
    with pytest.raises(BudgetExceeded, match="46341\\^2 states exceed the int32 state ids"):
        _kernels.orbit_labels(np.empty((0, 2, 46341), dtype=np.int64))


def test_pair_scan_peak_memory_per_state():
    """The D397 scan holds the labels and two work arrays as int32, `prev`
    as intp (the index of every compress jump and of the hook, so neither
    copies an int32 index to intp) and a bool comparison: 21 bytes per
    state, against 24 with `prev` int32 and 41 with the moves stacked as
    flat int64 index arrays."""
    G = groups.dihedral(397)
    tau = morphisms.tau_inverse(G)
    conjugacy.conjugacy_classes(G)
    tracemalloc.start()
    try:
        conjugacy.simultaneous_conjugation_scan(G, 2, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22 * G.order**2


class _CountedMinimum:
    """`np.minimum` counting its whole-array calls (the propagation steps);
    `.at` passes through."""

    at = staticmethod(np.minimum.at)

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return np.minimum(*args, **kwargs)


class _NumpyWith:
    """numpy with some names replaced."""

    def __init__(self, **names):
        self.__dict__.update(names)

    def __getattr__(self, name):
        return getattr(np, name)


# The propagation oracle takes 56 rounds on D397's pairs.  Without the hook,
# with the compress stopped a jump early, or with either direction of the
# sweep left out, the kernel takes tens to thousands of rounds on one of
# these cases (a label crossing Z10007 against the shift moves one state a
# round).  Each round takes at most two `np.minimum` steps per move.
@pytest.mark.parametrize("case,most", [
    ("D397 pairs", 16), ("D101 pairs", 16), ("S6 pairs", 24),
    ("Z10007 shift up", 8), ("Z10007 shift down", 8),
])
def test_converges_in_a_few_rounds(case, most, monkeypatch):
    moves = ORACLE_CASES[case]()
    minimum = _CountedMinimum()
    monkeypatch.setattr(_kernels, "np", _NumpyWith(minimum=minimum))
    labels = _kernels.orbit_labels(moves)
    monkeypatch.undo()
    assert np.array_equal(labels, _propagation_oracle(moves))
    assert 0 < minimum.calls <= most

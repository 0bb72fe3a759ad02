import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taumackey import characters, cli, conjugacy, criteria, groups, morphisms
from taumackey.errors import MathCheckError

from battery import available_taus, battery_names, get_group


def table_of(g):
    return characters.compute_character_table(g)


def verdict(name, tau_name="inverse"):
    g = get_group(name)
    taus = dict(available_taus(g))
    return criteria.simply_reducible_verdict(table_of(g), taus[tau_name])


@pytest.mark.parametrize("name", ["S3", "S4", "Q8"])
def test_known_simply_reducible(name):
    v = verdict(name)
    assert v.agree and v.definition
    assert v.mackey_cosets is True
    assert v.sums[0] == v.sums[1]


def test_z3_fails_self_conjugacy_only():
    v = verdict("Z3")
    assert v.definition_mf and not v.definition_selfconj
    assert v.agree and not v.definition
    assert v.witnesses["self_conjugate"]["row"] >= 1


def test_icosahedral_style_negative():
    v = verdict("A5xZ2")
    assert v.agree and not v.definition
    assert v.witnesses["tensor"]["multiplicity"] >= 2
    assert v.sums[0] < v.sums[1]


def test_a5_strict_inequality():
    a5 = groups.alternating(5)
    ok, sums = criteria.check_mackey_wigner(a5, morphisms.tau_inverse(a5))
    assert not ok and sums[0] < sums[1]


@pytest.mark.parametrize("n", range(1, 6))
def test_clifford_battery_verdicts(n):
    g = groups.clifford(n)
    v = criteria.simply_reducible_verdict(table_of(g), morphisms.tau_clifford(g))
    assert v.agree and v.definition


def test_clifford3_needs_the_twisted_map():
    g = groups.clifford(3)
    v = criteria.simply_reducible_verdict(table_of(g), morphisms.tau_inverse(g))
    assert v.agree and not v.definition


def test_mackey_cosets_examples():
    q8 = get_group("Q8")
    assert criteria.check_mackey_cosets(q8, morphisms.tau_inverse(q8))
    z3 = get_group("Z3")
    assert not criteria.check_mackey_cosets(z3, morphisms.tau_inverse(z3))


def test_budget_skip_leaves_partial_verdict():
    s4 = get_group("S4")
    v = criteria.simply_reducible_verdict(
        table_of(s4), morphisms.tau_inverse(s4), pair_budget=10
    )
    assert v.mackey_cosets is None
    assert v.partially_verified
    assert v.cosets_skipped == "|G|^2 = 576 exceeds the pair budget 10"
    assert v.agree and v.definition  # the two remaining routes agree


def test_disagreement_is_loud():
    v = criteria.SRVerdict(True, True, False, True, (1, 1))
    assert not v.agree
    payload = cli._verdict_payload(v)
    assert payload["agree"] is False and "simply_reducible" not in payload


@pytest.mark.parametrize("name", battery_names())
def test_three_way_agreement_battery(name):
    g = get_group(name)
    for _, tau in available_taus(g):
        assert criteria.simply_reducible_verdict(table_of(g), tau).agree


@pytest.mark.parametrize("name", battery_names())
def test_every_power_sum_caller_reads_one_function(name, monkeypatch):
    """power_sum_report, the Mackey-Wigner route and the census all report
    conjugacy.power_sums; the Mackey-Wigner route runs no orbit scan."""
    g = get_group(name)
    table = characters.compute_character_table(g)
    for _, tau in available_taus(g):
        v1, z1 = conjugacy.power_sums(g, tau, 1)
        v2, z2 = conjugacy.power_sums(g, tau, 2)
        rep = conjugacy.power_sum_report(g, tau, 2)
        assert (rep.sum_centralizer_pow, rep.sum_twisted_square_pow) == (v2, z2)
        assert v1 == g.order * conjugacy.conjugacy_classes(g).class_count
        census = characters.self_conjugate_census(table, tau)
        assert census.squared_count_route * g.order == z1
        assert (census.squared_count_route == table.class_count) == (z1 == v1)
        with monkeypatch.context() as m:
            m.setattr(conjugacy, "simultaneous_conjugation_scan", None)
            assert criteria.check_mackey_wigner(g, tau) == (z2 == v2, (z2, v2))


def order_one_conditions(g, tau):
    """The three order-1 conditions as the census reads them: the averaged
    squared counts equal the class count, every class is tau-invariant, and
    every row is self-tau-conjugate.  The census asserts the three counts
    equal, so the three conditions hold together or fail together."""
    table = table_of(g)
    census = characters.self_conjugate_census(table, tau)
    k = table.class_count
    conditions = (census.squared_count_route == k, census.invariant_class_route == k,
                  census.count == k)
    assert len(set(conditions)) == 1
    return conditions[0]


def test_square_sum_check_examples():
    q8 = get_group("Q8")
    assert order_one_conditions(q8, morphisms.tau_inverse(q8))
    z3 = get_group("Z3")
    assert not order_one_conditions(z3, morphisms.tau_inverse(z3))
    z4 = get_group("Z4")
    assert order_one_conditions(z4, morphisms.tau_identity(z4))


@pytest.mark.parametrize("name", battery_names())
def test_square_sum_check_battery(name):
    g = get_group(name)
    for _, tau in available_taus(g):
        order_one_conditions(g, tau)


def test_abelian_characterization_examples():
    z5 = get_group("Z5")
    assert conjugacy.power_sum_report(z5, morphisms.tau_identity(z5), 3).equal
    assert not conjugacy.power_sum_report(z5, morphisms.tau_inverse(z5), 3).equal
    s3 = get_group("S3")
    for _, tau in available_taus(s3):
        assert not conjugacy.power_sum_report(s3, tau, 3).equal


@pytest.mark.parametrize("name", battery_names())
def test_downward_equality_chain(name):
    """Equality of the power sums at n forces equality below n."""
    g = get_group(name)
    for _, tau in available_taus(g):
        flags = [conjugacy.power_sum_report(g, tau, n).equal for n in (1, 2, 3)]
        assert flags == sorted(flags, reverse=True)


def _tensor_cube_oracle(table):
    """The k^3 path: every multiplicity at once, with the integrality check
    over the whole array."""
    X = table.values
    w = table.conj.class_sizes / table.group.order
    raw = np.einsum("ic,jc,lc,c->ijl", X, X, X.conj(), w)
    mults = np.round(raw.real).astype(np.int64)
    worst = float(np.abs(raw - mults).max())
    if worst > characters.INT_TOL:
        raise MathCheckError(
            f"tensor multiplicities are not integral (residual {worst:.3g})"
        )
    return mults


def _tensor_rows_oracle(table):
    """The cube one full (k, k) row m[i] at a time, unrounded, so that the
    200-class tables never hold k^3 numbers."""
    X = table.values
    w = table.conj.class_sizes / table.group.order
    for i in range(table.class_count):
        yield (X[i] * X * w) @ X.conj().T


def _tensor_witness_oracle(table):
    """The first violation of the whole cube in argwhere order, after every
    row has been checked integral."""
    worst, witness = 0.0, None
    for i, raw in enumerate(_tensor_rows_oracle(table)):
        row = np.round(raw.real).astype(np.int64)
        worst = max(worst, float(np.abs(raw - row).max()))
        if witness is None and (row > 1).any():
            j, l = (int(x) for x in np.argwhere(row > 1)[0])
            witness = {
                "rows": [i, j, l],
                "degrees": [int(table.degrees[x]) for x in (i, j, l)],
                "multiplicity": int(row[j, l]),
            }
    if worst > characters.INT_TOL:
        raise MathCheckError(
            f"tensor multiplicities are not integral (residual {worst:.3g})"
        )
    return witness


_WITNESS_BUILDERS = {
    "A5": lambda: groups.alternating(5),
    "D397": lambda: groups.dihedral(397),       # 200 classes, multiplicity-free
    "CL7": lambda: groups.clifford(7),          # 130 classes
    "A5xA5": lambda: groups.direct_product(groups.alternating(5), groups.alternating(5)),
    "S6": lambda: groups.symmetric(6),
    "A6xZ2": lambda: groups.direct_product(groups.alternating(6), groups.cyclic(2)),
}


@pytest.mark.parametrize("name", battery_names() + list(_WITNESS_BUILDERS))
def test_tensor_witness_matches_the_cube(name):
    g = _WITNESS_BUILDERS[name]() if name in _WITNESS_BUILDERS else get_group(name)
    table = characters.compute_character_table(g)
    _, _, witnesses = criteria.check_definition(table, morphisms.tau_inverse(g))
    assert witnesses.get("tensor") == _tensor_witness_oracle(table)
    pairs = characters.multiplicity_free_pairs(table)
    assert pairs.shape == (table.class_count,) * 2
    for i, raw in enumerate(_tensor_rows_oracle(table)):
        row = np.round(raw.real).astype(np.int64)
        assert np.array_equal(pairs[i], (row <= 1).all(axis=1))
        block = characters.tensor_row(table, i)       # the upper half only
        assert block.dtype == np.int64
        assert np.array_equal(block, row[i:])


@st.composite
def permutation_groups(draw):
    """Groups generated by up to three random permutations of degree <= 6."""
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)).map(tuple), min_size=1, max_size=3))
    return groups._permutation_group(gens, degree)


@settings(max_examples=100, deadline=None)
@given(permutation_groups())
def test_equal_sums_decide_multiplicity_freeness_like_the_cube(g):
    table = characters.compute_character_table(g)
    cube = _tensor_cube_oracle(table)
    pairs = characters.multiplicity_free_pairs(table)
    assert np.array_equal(pairs, (cube <= 1).all(axis=2))
    _, _, witnesses = criteria.check_definition(table, morphisms.tau_inverse(g))
    assert witnesses.get("tensor") == _tensor_witness_oracle(table)


@pytest.mark.parametrize("group,blocks", [
    ({"family": "dihedral", "n": 397}, 0), ({"family": "symmetric", "n": 6}, 1)],
    ids=["D397", "S6"])
def test_a_job_forms_a_tensor_block_only_for_its_witness(group, blocks, monkeypatch):
    formed = []

    def counted(table, i):
        formed.append(i)
        return characters.tensor_row(table, i)

    monkeypatch.setattr(criteria, "tensor_row", counted)
    report, code = cli.run_job({"command": "simply-reducible", "group": group}, 1)
    assert code == 0
    assert len(formed) == blocks
    assert report["payload"]["definition"]["multiplicity_free"] == (blocks == 0)


def test_a5_tensor_witness_is_a_multiplicity_two():
    g = groups.alternating(5)
    _, _, witnesses = criteria.check_definition(table_of(g), morphisms.tau_inverse(g))
    assert witnesses["tensor"]["multiplicity"] == 2
    assert witnesses["tensor"]["degrees"] == [4, 5, 5]


def _sums_residual_oracle(table):
    """The integrality residual of N[i, j] = sum_c w_c |chi_i|^2 |chi_j|^2 and
    S[i, j] = sum_c w_c chi_i chi_j conj(sum of the rows), term by term."""
    X = table.values
    w = table.conj.class_sizes / table.group.order
    a = np.abs(X) ** 2
    N = np.einsum("ic,jc,c->ij", a, a, w)
    S = np.einsum("ic,jc,c->ij", X, X, w * X.sum(axis=0).conj())
    return max(float(np.abs(M - np.round(M.real)).max()) for M in (N, S))


# A5's rows have degrees 1, 3, 3, 4, 5, and its first tensor witness is in
# row 3.  Bending X[4, 0] puts the cube's worst residual in row 4, after the
# witness; bending X[1, 3] puts it in row 1 and leaves the last row
# integral.  Either way the sums N and S are not integral (residuals about
# 8e-3 and 3e-3), and that is raised before the witness row is formed.
@pytest.mark.parametrize("row,col", [(4, 0), (1, 3)])
def test_non_integral_block_raises_the_worst_residual_before_any_witness(
    row, col, monkeypatch
):
    g = groups.alternating(5)
    table = characters.compute_character_table(g)
    bent = dataclasses.replace(table, values=table.values.copy())
    bent.values[row, col] += 1e-3
    with pytest.raises(MathCheckError, match="tensor multiplicities are not integral"):
        _tensor_witness_oracle(bent)
    monkeypatch.setattr(criteria, "tensor_row", None)     # no witness is formed
    with pytest.raises(MathCheckError) as got:
        criteria.check_definition(bent, morphisms.tau_inverse(g))
    worst = _sums_residual_oracle(bent)
    assert worst > characters.INT_TOL
    assert str(got.value) == f"tensor multiplicities are not integral (residual {worst:.3g})"

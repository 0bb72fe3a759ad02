import json
import sys

import pytest

from taumackey import characters, cli, conjugacy, criteria, errors, gelfand, groups
from taumackey.errors import SpecError


def test_run_job_simply_reducible_q8():
    report, code = cli.run_job(
        {"command": "simply-reducible", "group": {"family": "quaternion8"},
         "tau": "inverse"},
        seed=1,
    )
    assert code == 0
    assert report["payload"]["simply_reducible"] is True
    assert report["payload"]["mackey_wigner"]["sum_twisted_cubes"]["value"] == "224"


def test_run_job_power_sums_strings():
    report, code = cli.run_job(
        {"command": "power-sums", "group": {"family": "symmetric", "n": 3},
         "tau": "inverse", "n": 2},
        seed=1,
    )
    assert code == 0
    p = report["payload"]
    assert p["sum_twisted_pow"]["value"] == "66"
    assert p["sum_centralizer_pow"]["value"] == "66"
    assert p["equal"] is True


def test_run_job_char_table_trivial():
    report, code = cli.run_job(
        {"command": "char-table", "group": {"family": "cyclic", "n": 1}},
        seed=1,
    )
    assert code == 0
    assert report["payload"]["rows"] == [[[1.0, 0.0]]]


def test_unknown_command_and_family():
    with pytest.raises(SpecError):
        cli.run_job({"command": "nonsense"}, 1)
    with pytest.raises(SpecError):
        cli.run_job({"command": "fs", "group": {"family": "nope"}}, 1)


def test_identity_tau_on_nonabelian_is_spec_error():
    with pytest.raises(SpecError):
        cli.run_job(
            {"command": "fs", "group": {"family": "symmetric", "n": 3},
             "tau": "identity"},
            seed=1,
        )


def test_group_spec_variants():
    g = cli.build_group({"generators": ["(1 2)", "(1 2 3)"], "degree": 3})
    assert g.order == 6
    p = cli.build_group({"product": [{"family": "cyclic", "n": 2},
                                     {"family": "cyclic", "n": 3}]})
    assert p.order == 6
    sd = cli.build_group({"semidirect": {"base": {"family": "cyclic", "n": 3},
                                         "tau": "identity"}})
    assert sd.order == 6 and not sd.is_abelian()
    with pytest.raises(SpecError):
        cli.build_group({"generators": ["(1 2)"]})
    with pytest.raises(SpecError):
        cli.build_group({})


def test_subgroup_spec_variants():
    g = cli.build_group({"family": "symmetric", "n": 4})
    ids = cli.build_subgroup(g, {"generators": ["(1 2)", "(1 2 3)"]})
    assert len(ids) == 6
    ids2 = cli.build_subgroup(g, {"centralizer_of_sigma": {"inner": "(1 2)(3 4)"}})
    assert len(ids2) == 8


@pytest.mark.parametrize("job", [
    {"command": "char-table", "group": {"generators": "(1 2)", "degree": 2}},
    {"command": "gelfand", "group": {"family": "symmetric", "n": 3},
     "subgroup": {"generators": "(1 2)"}, "tau": "inverse"},
], ids=["group", "subgroup"])
def test_generators_string_is_spec_error(job):
    out = cli._run_isolated(job, 1, cli.Budgets())
    assert out["exit_code"] == 1
    error = out["report"]["payload"]["error"]
    assert error.startswith("'generators' must be a list")
    assert "\n" not in error


def test_report_determinism():
    job = {"command": "fs", "group": {"family": "symmetric", "n": 4}, "tau": "inverse"}
    r1, _ = cli.run_job(job, 7)
    r2, _ = cli.run_job(job, 7)
    assert cli.render_report(r1) == cli.render_report(r2)


def test_exit_code_two_on_forced_disagreement(monkeypatch):
    def fake(table, tau, pair_budget=0):
        return criteria.SRVerdict(True, True, False, True, (1, 2))

    monkeypatch.setattr(criteria, "simply_reducible_verdict", fake)
    report, code = cli.run_job(
        {"command": "simply-reducible", "group": {"family": "cyclic", "n": 2},
         "tau": "inverse"},
        seed=1,
    )
    assert code == 2
    assert report["payload"]["agree"] is False


def test_batch_empty_manifest():
    aggregate, code, stats = cli.run_batch({"jobs": []}, 1)
    assert code == 0 and aggregate["jobs"] == [] and stats["jobs"] == 0


def test_batch_cache_and_isolation(tmp_path):
    manifest = {
        "jobs": [
            {"command": "power-sums", "group": {"family": "cyclic", "n": 5},
             "tau": "identity", "n": 2},
            {"command": "fs", "group": {"family": "missing-family"}},
        ]
    }
    cache = tmp_path / "cache"
    agg1, code1, stats1 = cli.run_batch(manifest, 3, cache_dir=cache)
    assert code1 == 1  # the bad job is isolated and reported
    assert stats1["cache_misses"] == 2
    assert "error" in agg1["jobs"][1]["payload"]
    assert agg1["jobs"][0]["payload"]["equal"] is True
    agg2, code2, stats2 = cli.run_batch(manifest, 3, cache_dir=cache)
    assert stats2["cache_hits"] == 2
    assert cli.render_report(agg1) == cli.render_report(agg2)



def test_batch_torn_cache_entry_is_a_miss(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"jobs": [
        {"command": "fs", "group": {"family": "dihedral", "n": 4}},
        {"command": "power-sums", "group": {"family": "symmetric", "n": 3},
         "tau": "inverse", "n": 2},
    ]}))
    cold, rerun, cache = tmp_path / "cold.json", tmp_path / "rerun.json", tmp_path / "c"
    assert cli.main(["batch", str(manifest), "--cache-dir", str(cache),
                     "--out", str(cold)]) == 0
    entries = sorted(cache.iterdir())
    assert len(entries) == 2 and all(e.suffix == ".json" for e in entries)
    torn = entries[0]
    full = torn.read_text()
    torn.write_text(full[: len(full) // 2])  # as left by a run killed mid-write
    assert cli.main(["batch", str(manifest), "--cache-dir", str(cache),
                     "--out", str(rerun)]) == 0
    assert "1 cache hits" in capsys.readouterr().err
    assert rerun.read_text() == cold.read_text()
    assert torn.read_text() == full  # rewritten in full, no temp file left
    assert sorted(cache.iterdir()) == entries

def test_main_end_to_end(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = cli.main([
        "simply-reducible", "--group", '{"family":"quaternion8"}',
        "--tau", "inverse", "--out", str(out), "--seed", "2",
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["payload"]["simply_reducible"] is True
    assert data["seed"] == 2


def test_main_usage_error(capsys):
    code = cli.main(["fs", "--group", '{"family":"unknown-thing"}'])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_main_text_format(tmp_path):
    out = tmp_path / "r.txt"
    code = cli.main([
        "char-table", "--group", '{"family":"cyclic","n":2}',
        "--format", "text", "--out", str(out),
    ])
    assert code == 0
    assert "degrees" in out.read_text()


def test_main_group_from_file(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text('{"family": "dihedral", "n": 4}')
    out = tmp_path / "r.json"
    assert cli.main(["fs", "--group", f"@{spec}", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["order"] == 8


def test_env_seed(monkeypatch, tmp_path):
    monkeypatch.setenv(cli.ENV_SEED, "99")
    out = tmp_path / "r.json"
    assert cli.main(["char-table", "--group", '{"family":"cyclic","n":3}',
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 99
    monkeypatch.setenv(cli.ENV_SEED, "not-a-number")
    assert cli.main(["char-table", "--group", '{"family":"cyclic","n":3}']) == 1


S3 = {"family": "symmetric", "n": 3}
# specs naming an element by something that is neither an id nor a string
MALFORMED_ELEMENT_JOBS = [
    {"command": "fs", "group": S3, "tau": {"inner": [1, 0, 2]}},
    {"command": "gelfand", "group": S3, "subgroup": {"generators": [[1, 0, 2]]},
     "tau": "inverse"},
    {"command": "fs", "group": S3, "tau": {"generator_images": 5}},
]


@pytest.mark.parametrize("job", [
    *({"command": "power-sums", "group": group} for group in [
        {"family": "cyclic", "n": "3"},
        {"family": "dihedral", "n": 2.5},
        {"family": "cyclic", "n": True},
        {"family": ["cyclic"], "n": 3},
        {"semidirect": 5},
        {"generators": ["(1 x)"], "degree": 3},
    ]),
    *MALFORMED_ELEMENT_JOBS,
], ids=["n-string", "n-float", "n-bool", "family-list", "semidirect-int", "cycle-point",
        "tau-inner-list", "subgroup-generator-list", "generator-images-int"])
def test_malformed_group_spec_is_one_line_spec_error(job):
    out = cli._run_isolated(job, 1, cli.Budgets())
    assert out["exit_code"] == 1
    error = out["report"]["payload"]["error"]
    assert error and "\n" not in error


def test_batch_runs_past_malformed_element_specs():
    good = {"command": "power-sums", "group": S3, "tau": "inverse", "n": 2}
    aggregate, code, _ = cli.run_batch({"jobs": [*MALFORMED_ELEMENT_JOBS, good]}, 3)
    assert code == 1
    errors = [r["payload"]["error"] for r in aggregate["jobs"][:3]]
    assert errors == ["no element matching [1, 0, 2]"] * 2 + [
        "'generator_images' must be an object, got 5"]
    assert aggregate["jobs"][3] == cli.run_job(good, 3)[0]


def test_batch_runs_past_a_non_member_inner_twist(capsys):
    d7 = {"family": "dihedral", "n": 7}
    bad = {"command": "fs", "group": d7, "tau": {"inner": "(1 2)"}}
    good = {"command": "fs", "group": d7, "tau": {"inner": "(2 7)(3 6)(4 5)"}}
    aggregate, code, _ = cli.run_batch({"jobs": [bad, good]}, 3)
    assert code == 1
    assert aggregate["jobs"][0]["payload"]["error"] == "no element matching '(1 2)'"
    assert aggregate["jobs"][1] == cli.run_job(good, 3)[0]
    assert "error" not in aggregate["jobs"][1]["payload"]
    args = ["fs", "--group", json.dumps(d7), "--tau", json.dumps(bad["tau"])]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: no element matching '(1 2)'\n"


# generator images that no anti-automorphism has: conflicting images, a
# non-identity image for a generator that is the identity, a wrong image for
# an element that is not a generator, and two keys naming one element
BAD_IMAGE_JOBS = [
    {"command": "fs", "group": S3,
     "tau": {"generator_images": {"(1 2)": "(1 2 3)", "(1 2 3)": "(1 2 3)"}}},
    {"command": "fs", "group": {"generators": ["e", "(1 2)", "(1 2 3)"], "degree": 3},
     "tau": {"generator_images": {"e": "(1 2)", "(1 2)": "(1 2)", "(1 2 3)": "(1 3 2)"}}},
    {"command": "fs", "group": S3,
     "tau": {"generator_images": {"(1 2)": "(1 2)", "(1 2 3)": "(1 3 2)", "(1 3)": "(1 2 3)"}}},
    {"command": "fs", "group": S3,
     "tau": {"generator_images": {"(1 2)": "(1 3)", "(2 1)": "(1 2)", "(1 2 3)": "(1 3 2)"}}},
]


def test_batch_runs_past_bad_generator_images():
    good = {"command": "fs", "group": S3,
            "tau": {"generator_images": {"(1 2)": "(1 2)", "(1 2 3)": "(1 3 2)"}}}
    jobs = [BAD_IMAGE_JOBS[0], good, *BAD_IMAGE_JOBS[1:]]
    aggregate, code, _ = cli.run_batch({"jobs": jobs}, 3)
    assert code == 1
    assert [r["payload"].get("error") for r in aggregate["jobs"]] == [
        "images are not a permutation of element ids", None,
        "generator e is given image (1 2), but its Cayley word gives e",
        "element (1 3) is given image (1 2 3), but its Cayley word gives (1 3)",
        "two keys of 'generator_images' name one element"]
    assert aggregate["jobs"][1] == cli.run_job(good, 3)[0]
    assert aggregate["jobs"][1]["payload"]["twisted_indicators"] == [1, 1, 1]


@pytest.mark.parametrize("job", BAD_IMAGE_JOBS,
                         ids=["conflicting", "identity-generator", "non-generator", "repeated-key"])
def test_bad_generator_images_exit_1_with_one_line(job, capsys):
    args = ["fs", "--group", json.dumps(job["group"]), "--tau", json.dumps(job["tau"])]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cache_key_covers_the_package_source(tmp_path, monkeypatch):
    package = cli.Path(cli.__file__).parent
    hashes = []
    for name in ("a", "b"):
        copy = tmp_path / name
        copy.mkdir()
        for path in package.glob("*.py"):
            (copy / path.name).write_bytes(path.read_bytes())
        if name == "b":
            (copy / "groups.py").write_text((copy / "groups.py").read_text() + "\n")
        hashes.append(cli._source_hash(copy))
    assert hashes[0] == cli._source_hash(package) != hashes[1]
    job = {"command": "power-sums", "group": S3, "tau": "inverse", "n": 2}
    keys = set()
    for h in hashes:
        monkeypatch.setattr(cli, "_source_hash", lambda h=h: h)
        keys.add(cli._cache_key(job, 1, cli.Budgets()))
    assert len(keys) == 2


def test_budget_order_caps_the_semidirect_extension():
    job = {"command": "char-table",
           "group": {"semidirect": {"base": {"family": "symmetric", "n": 4},
                                    "tau": "inverse"}}}
    out = cli._run_isolated(job, 1, cli.Budgets(order=30))
    assert out["exit_code"] == 1
    assert out["report"]["payload"]["error"] == "semidirect order 48 > cap 30"
    assert cli._run_isolated(job, 1, cli.Budgets(order=48))["exit_code"] == 0


def test_batch_isolates_malformed_jobs():
    good = {"command": "power-sums", "group": {"family": "symmetric", "n": 3},
            "tau": "inverse", "n": 2}
    manifest = {"jobs": [5, {**good, "seed": "x"}, {**good, "seed": 2.0},
                         ["power-sums"], good]}
    aggregate, code, stats = cli.run_batch(manifest, 3)
    assert code == 1 and stats["jobs"] == 5
    reports = aggregate["jobs"]
    for bad, expected in zip(reports[:4], ["a job must be an object", "'seed' must",
                                           "'seed' must", "a job must be an object"]):
        assert bad["payload"]["error"].startswith(expected)
        assert bad["seed"] == 3
    assert reports[0]["input"] == 5 and reports[0]["command"] is None
    assert reports[1]["input"]["seed"] == "x"
    assert reports[4] == cli.run_job(good, 3)[0]


def test_batch_manifest_that_is_not_an_object(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text("[1]")
    assert cli.main(["batch", str(manifest), "--cache-dir", ""]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest must be an object") and "Traceback" not in err


def test_power_sums_exponent_budget(capsys):
    group = '{"family":"symmetric","n":3}'
    assert cli.main(["power-sums", "--group", group, "--n", "100000"]) == 1
    err = capsys.readouterr().err
    budget = conjugacy.power_budget(6)
    assert err == f"error: power 100000 exceeds the exponent budget {budget} for order 6\n"
    for order, n in ((7, conjugacy.power_budget(7)), (10, conjugacy.power_budget(10))):
        report, code = cli.run_job(
            {"command": "power-sums", "group": {"family": "cyclic", "n": order},
             "tau": "identity", "n": n}, 1)
        assert code == 0
        # tau = identity: every h has tau(h^-1)h = 1, so the twisted sum is order^(n+1)
        assert report["payload"]["sum_twisted_pow"]["value"] == str(order ** (n + 1))
    # Z10 at its budget prints a 4300-digit sum, Python's int-to-str limit
    assert len(report["payload"]["sum_twisted_pow"]["value"]) == conjugacy.SUM_DIGITS


@pytest.fixture(scope="module")
def s7():
    """S7 (order 5040), built once: its conjugacy classes and character
    table are cached on it across the jobs below."""
    return groups.symmetric(7)


@pytest.mark.parametrize("command", ["char-table", "fs", "simply-reducible"])
def test_s7_runs_without_a_table(command, s7, monkeypatch):
    spec = {"family": "symmetric", "n": 7}
    build = cli.build_group
    monkeypatch.setattr(cli, "build_group",
                        lambda g, cap=groups.ORDER_CAP: s7 if g == spec else build(g, cap))
    job = {"command": command, "group": spec}
    if command != "char-table":     # char-table reads no tau
        job["tau"] = "inverse"
    report, code = cli.run_job(job, 1)
    assert code == 0
    p = report["payload"]
    if command == "char-table":
        assert len(p["degrees"]) == 15 and sum(d * d for d in p["degrees"]) == 5040
    elif command == "fs":
        assert p["twisted_indicators"] == p["classical_indicators"] == [1] * 15
        assert p["census"]["equal"]["holds"] and p["count_expansion"]["holds"]
    else:
        # S7 is not simply reducible; only the G x G scan is over its budget
        assert p["agree"] and p["simply_reducible"] is False
        assert p["mackey_cosets"] == {
            "skipped": "|G|^2 = 25401600 exceeds the pair budget 4000000"}


def test_negative_seed_is_a_one_line_spec_error(monkeypatch, capsys, tmp_path):
    good = {"command": "power-sums", "group": S3, "tau": "inverse", "n": 2}
    aggregate, code, _ = cli.run_batch({"jobs": [good, {**good, "seed": -1}, good]}, 3)
    assert code == 1
    assert aggregate["jobs"][1]["payload"] == {
        "error": "'seed' must be a non-negative integer, got -1"}
    assert aggregate["jobs"][0] == aggregate["jobs"][2] == cli.run_job(good, 3)[0]
    char_table = ["char-table", "--group", json.dumps(S3)]
    assert cli.main([*char_table, "--seed", "-5"]) == 1
    assert capsys.readouterr().err == (
        "error: --seed must be a non-negative integer, got -5\n")
    monkeypatch.setenv(cli.ENV_SEED, "-2")
    assert cli.main(char_table) == 1
    assert capsys.readouterr().err == (
        f"error: {cli.ENV_SEED} must be a non-negative integer, got -2\n")
    monkeypatch.setenv(cli.ENV_SEED, "0")
    out = tmp_path / "r.json"
    assert cli.main([*char_table, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 0


@pytest.mark.parametrize("flag", ["--budget-pairs", "--budget-order", "--budget-classes"])
def test_negative_budget_is_a_one_line_spec_error(flag, capsys, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"jobs": [
        {"command": "power-sums", "group": S3, "tau": "inverse", "n": 2}]}))
    cache = tmp_path / "c"
    for argv in (["char-table", "--group", json.dumps(S3)],
                 ["batch", str(manifest), "--cache-dir", str(cache)]):
        assert cli.main([*argv, flag, "-3"]) == 1
        assert capsys.readouterr() == (
            "", f"error: {flag} must be a non-negative integer, got -3\n")
    assert not cache.exists()
    # zero is accepted; a zero order cap then refuses the group
    code = cli.main(["power-sums", "--group", json.dumps(S3), "--tau", "inverse",
                     "--n", "2", "--out", str(tmp_path / "r.json"), flag, "0"])
    assert "non-negative" not in capsys.readouterr().err
    assert code == (1 if flag == "--budget-order" else 0)


@pytest.mark.parametrize("job,error", [
    ({"command": "char-table", "group": {"generators": ["e"], "degree": True}},
     "generator specs need a positive integer 'degree'"),
    ({"command": "gelfand", "group": S3, "subgroup": {"generators": [True]},
      "tau": "inverse"}, "no element matching True"),
    ({"command": "fs", "group": S3, "tau": {"inner": False}}, "no element matching False"),
], ids=["degree", "subgroup-generator", "tau-inner"])
def test_booleans_are_not_degrees_or_element_ids(job, error):
    out = cli._run_isolated(job, 1, cli.Budgets())
    assert out["exit_code"] == 1
    assert out["report"]["payload"] == {"error": error}


def test_generator_degree_over_the_cap_is_refused_before_any_tuple(monkeypatch, capsys):
    job = {"command": "char-table", "group": {"generators": ["(1 2)"],
                                              "degree": groups.DEGREE_CAP + 1}}
    assert cli.build_group({**job["group"], "degree": groups.DEGREE_CAP}).order == 2

    def no_tuple(*args):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr(groups, "parse_cycles", no_tuple)
    out = cli._run_isolated(job, 1, cli.Budgets())
    assert out["exit_code"] == 1
    assert out["report"]["payload"] == {"error": f"'degree' {groups.DEGREE_CAP + 1} "
                                                 f"exceeds the cap {groups.DEGREE_CAP}"}
    assert cli.main(["char-table", "--group", '{"generators": ["(1 2)"], "degree": 3000000}']) == 1
    assert capsys.readouterr().err == "error: 'degree' 3000000 exceeds the cap 1000\n"


# generator images of S7 that extend to an anti-automorphism whose square is
# not the identity
NON_INVOLUTORY_TAU = {"generator_images": {"(1 2)": "(2 3)",
                                           "(1 2 3 4 5 6 7)": "(2 7 6 5 4 1 3)"}}
NOT_INVOLUTORY = "the generator images extend to a non-involutory anti-automorphism"


@pytest.fixture
def table_calls(monkeypatch):
    """The calls of compute_character_table made during a test."""
    calls = []
    table = characters.compute_character_table
    monkeypatch.setattr(characters, "compute_character_table",
                        lambda *a: calls.append(a) or table(*a))
    return calls


def test_non_involutory_generator_images_are_refused_when_built(table_calls, capsys):
    args = ["fs", "--group", json.dumps({"family": "symmetric", "n": 7}),
            "--tau", json.dumps(NON_INVOLUTORY_TAU)]
    assert cli.main(args) == 1
    assert capsys.readouterr() == ("", f"error: {NOT_INVOLUTORY}\n")
    assert table_calls == []


def test_batch_refuses_non_involutory_generator_images_and_runs_the_others(table_calls):
    s7 = {"family": "symmetric", "n": 7}
    bad = {"command": "simply-reducible", "group": s7, "tau": NON_INVOLUTORY_TAU}
    good = {"command": "power-sums", "group": {"family": "cyclic", "n": 5}, "n": 2}
    aggregate, code, _ = cli.run_batch({"jobs": [bad, good]}, 3)
    assert code == 1
    assert aggregate["jobs"][0]["payload"] == {"error": NOT_INVOLUTORY}
    assert aggregate["jobs"][1] == cli.run_job(good, 3)[0]
    assert table_calls == []


def test_gelfand_refuses_on_the_class_cap_before_coset_work(monkeypatch, capsys):
    def no_coset_space(*args):
        raise AssertionError("build_coset_space ran before the class cap")

    monkeypatch.setattr(gelfand, "build_coset_space", no_coset_space)
    # |X|^2 = 4096^2 is within this pair budget, so the class cap refuses
    args = ["gelfand", "--group", json.dumps({"family": "dihedral", "n": 2048}),
            "--subgroup", json.dumps({"generators": []}), "--tau", "inverse",
            "--budget-pairs", str(4096**2)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: class count 1027 exceeds the cap 200\n"


@pytest.mark.parametrize("group,pairs", [
    ({"family": "symmetric", "n": 7}, 5040**2),
    ({"family": "dihedral", "n": 2048}, 4096**2),   # before the class cap
], ids=["S7", "D2048"])
def test_gelfand_refuses_on_the_pair_budget_before_the_table(group, pairs, table_calls,
                                                            capsys):
    """|X| = |G| / |K| is known once K is built: a trivial K is refused
    before any character table or coset space."""
    args = ["gelfand", "--group", json.dumps(group),
            "--subgroup", json.dumps({"generators": []}), "--tau", "inverse"]
    assert cli.main(args) == 1
    assert capsys.readouterr() == (
        "", f"error: |X|^2 = {pairs} exceeds the pair budget 4000000\n")
    assert table_calls == []


def test_gelfand_job_computes_the_twisted_indicators_once(monkeypatch):
    calls = []
    indicators = gelfand.twisted_fs_indicators
    monkeypatch.setattr(gelfand, "twisted_fs_indicators",
                        lambda *a: calls.append(a) or indicators(*a))
    job = {"command": "gelfand", "tau": "inverse",
           "group": {"generators": ["(1 2)", "(1 2 3 4)", "(1 5)(2 6)(3 7)(4 8)"],
                     "degree": 8},
           "subgroup": {"generators": ["(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7 8)"]}}
    report, code = cli.run_job(job, 1)
    assert code == 0
    p = report["payload"]
    assert (p["order"], p["points"], p["gelfand"]) == (1152, 2, True)
    assert p["conditions"]["constituents_indicator_one"] is True
    assert p["twisted_pair"]["indicators"] == [1, 1]
    assert len(calls) == 1


COMMON_FLAGS = {"-h", "--help", "--seed", "--budget-pairs", "--budget-order",
                "--budget-classes", "--format", "--out"}


def _subparsers():
    action = next(a for a in cli._parser()._actions
                  if isinstance(a, cli.argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_each_command_has_only_the_flags_of_its_keys(command):
    flags = {s for a in _subparsers()[command]._actions for s in a.option_strings}
    assert flags == COMMON_FLAGS | {f"--{key}" for key in cli.COMMANDS[command][1]}


@pytest.mark.parametrize("argv,error", [
    (["fs", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["char-table", "--group", '{"family":"cyclic","n":3}', "--tau", "inverse"],
     "unrecognized arguments: --tau inverse"),
    (["power-sums", "--group", json.dumps(S3), "--n", "x"],
     "argument --n: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
], ids=["unknown-flag", "undeclared-flag", "bad-int", "no-command"])
def test_usage_errors_exit_1_on_one_line(argv, error, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("job,error", [
    ({"command": "fs"}, "fs job needs 'group'"),
    ({"command": "gelfand", "group": S3}, "gelfand job needs 'subgroup'"),
    ({"command": "condition-star", "group": S3}, "condition-star job needs 'sigma'"),
    ({"command": "char-table", "group": S3, "tau": {"inner": "nonsense"}, "sigma": 7},
     "char-table job does not read 'sigma', 'tau'"),
    ({"command": "clifford-battery", "group": S3}, "clifford-battery job does not read 'group'"),
    ({"command": "fs", "group": S3, "subgroup": {"generators": []}},
     "fs job does not read 'subgroup'"),
], ids=["fs-group", "gelfand-subgroup", "condition-star-sigma", "char-table-unread",
        "clifford-group", "fs-subgroup"])
def test_jobs_carry_exactly_their_command_keys(job, error):
    out = cli._run_isolated(job, 1, cli.Budgets())
    assert out["exit_code"] == 1
    assert out["report"]["payload"] == {"error": error}


def test_a_job_may_carry_its_seed_and_leave_tau_and_n_to_defaults():
    report, code = cli.run_job({"command": "power-sums", "group": S3, "seed": 4}, 4)
    assert code == 0 and report["payload"]["n"] == 2


def test_run_job_computes_with_the_jobs_own_seed(table_calls):
    job = {"command": "char-table", "group": {"family": "cyclic", "n": 3}}
    report, code = cli.run_job({**job, "seed": 4}, 1)
    assert code == 0 and report["seed"] == 4 and [a[1] for a in table_calls] == [4]
    assert report["payload"] == cli.run_job(job, 4)[0]["payload"]
    for bad, error in [(-4, "'seed' must be a non-negative integer, got -4"),
                       ("4", "'seed' must be an integer, got '4'"),
                       (True, "'seed' must be an integer, got True")]:
        with pytest.raises(SpecError) as exc:
            cli.run_job({**job, "seed": bad}, 1)
        assert str(exc.value) == error


def test_batch_refuses_bad_cycles_and_runs_the_good_jobs(tmp_path, capsys):
    def job(gens):
        return {"command": "power-sums", "group": {"generators": gens, "degree": 3}}
    good = job(["(1 2)", "(1 2 3)"])
    bad = [(["(1 2)(1 3)"], "cycles of '(1 2)(1 3)' are not disjoint"),
           ([5], "a permutation must be a cycle string, got 5"),
           ([[1, 0]], "a permutation must be a cycle string, got [1, 0]")]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"jobs": [good] + [job(g) for g, _ in bad] + [good]}))
    out = tmp_path / "r.json"
    assert cli.main(["batch", str(manifest), "--cache-dir", "", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    reports = json.loads(out.read_text())["jobs"]
    assert [r["payload"] for r in reports[1:4]] == [{"error": e} for _, e in bad]
    expected = cli.run_job(good, cli.DEFAULT_SEED)[0]
    assert reports[0] == reports[4] == expected
    assert expected["payload"]["equal"] is True     # S3 is simply reducible
    for gens, error in bad:
        group = json.dumps({"generators": gens, "degree": 3})
        assert cli.main(["power-sums", "--group", group]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_batch_runs_past_a_job_without_its_group(tmp_path, capsys):
    good = {"command": "fs", "group": S3, "tau": "inverse"}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"jobs": [{"command": "fs"}, good]}))
    out = tmp_path / "r.json"
    assert cli.main(["batch", str(manifest), "--cache-dir", "", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    reports = json.loads(out.read_text())["jobs"]
    assert reports[0]["payload"] == {"error": "fs job needs 'group'"}
    assert reports[1] == cli.run_job(good, cli.DEFAULT_SEED)[0]


GROUP_FORMS = [
    {"family": "cyclic", "n": 3},
    {"generators": ["(1 2)", "(1 2 3)"], "degree": 3},
    {"product": [{"family": "cyclic", "n": 2}, {"family": "cyclic", "n": 3}]},
    {"semidirect": {"base": {"family": "cyclic", "n": 3}, "tau": "identity"}},
]


@pytest.mark.parametrize("spec", [
    *({**form, "extra": 1} for form in GROUP_FORMS),
    {"family": "cyclic", "n": 3, "generators": ["(1 2)"], "degree": 2},
    {"family": "cyclic", "degree": 3},
], ids=["family", "generators", "product", "semidirect", "two-forms", "other-forms-key"])
def test_group_spec_with_a_key_outside_its_form_is_refused(spec):
    with pytest.raises(SpecError, match="^group spec needs one of"):
        cli.build_group(spec)


def test_group_forms_build_and_semidirect_takes_only_base_and_tau():
    assert [cli.build_group(spec).order for spec in GROUP_FORMS] == [3, 6, 6, 6]
    bad = {"semidirect": {**GROUP_FORMS[3]["semidirect"], "extra": 1}}
    with pytest.raises(SpecError, match="^'semidirect' takes an object of 'base' and 'tau'"):
        cli.build_group(bad)


@pytest.mark.parametrize("build,spec", [
    (cli.build_tau, {"inner": "(1 2)", "extra": 1}),
    (cli.build_tau, {"generator_images": {"(1 2)": "(1 2)", "(1 2 3)": "(1 3 2)"},
                     "extra": 1}),
    (cli.build_tau, {"tau": "inverse", "extra": 1}),
    (cli.build_sigma, {"inner": "(1 2)", "extra": 1}),
    (cli.build_sigma, {"generator_images": {"(1 2)": "(1 2)"}}),
    (cli.build_subgroup, {"generators": ["(1 2)"], "extra": 1}),
    (cli.build_subgroup, {"centralizer_of_sigma": "identity", "extra": 1}),
], ids=["tau-inner", "tau-generator-images", "tau-wrapper", "sigma-inner",
        "sigma-generator-images", "subgroup-generators", "subgroup-centralizer"])
def test_map_and_subgroup_specs_take_one_key(build, spec):
    s3 = cli.build_group(S3)
    what = build.__name__.removeprefix("build_")
    with pytest.raises(SpecError, match=f"^bad {what} spec: "):
        build(s3, spec)
    one_key = {k: v for k, v in spec.items() if k != "extra"}
    if "extra" in spec:
        build(s3, one_key)      # the same spec without the extra key is fine


@pytest.mark.parametrize("argv,error", [
    (["clifford-battery", "--n", "-1"], "clifford-battery 'n' must be at least 1, got -1"),
    (["clifford-battery", "--n", "0"], "clifford-battery 'n' must be at least 1, got 0"),
    (["char-table", "--group", '{"family":"quaternion8","n":5}'],
     "family 'quaternion8' takes no parameter n"),
], ids=["battery-negative", "battery-zero", "quaternion8-n"])
def test_lax_inputs_are_refused(argv, error, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_condition_star_reads_the_class_budget(tmp_path, capsys):
    """The character table of an involutory sigma obeys --budget-classes in
    both directions."""
    z250 = ["condition-star", "--group", '{"family":"cyclic","n":250}',
            "--sigma", '"identity"', "--out", str(tmp_path / "r.json")]
    assert cli.main(z250) == 1
    assert capsys.readouterr().err == "error: class count 250 exceeds the cap 200\n"
    assert cli.main([*z250, "--budget-classes", "300"]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["payload"]["gelfand"] is True
    s4 = ["condition-star", "--group", '{"family":"symmetric","n":4}',
          "--sigma", '{"inner":"(1 2)(3 4)"}', "--out", str(tmp_path / "s.json")]
    assert cli.main([*s4, "--budget-classes", "5"]) == 0
    capsys.readouterr()
    assert cli.main([*s4, "--budget-classes", "4"]) == 1
    assert capsys.readouterr().err == "error: class count 5 exceeds the cap 4\n"


# ---------------------------------------------------------------------------
# specs nested past the recursion limit
# ---------------------------------------------------------------------------

def _nested_product_text(depth: int) -> str:
    """A product spec nested ``depth`` deep, as JSON text built without
    recursion."""
    leaf = '{"family": "cyclic", "n": 1}'
    return '{"product": [' * depth + leaf + (", " + leaf + "]}") * depth


def _nested_product(depth: int) -> dict:
    spec = {"family": "cyclic", "n": 1}
    for _ in range(depth):
        spec = {"product": [spec, {"family": "cyclic", "n": 1}]}
    return spec


@pytest.fixture
def shallow_stack():
    """A recursion limit 200 frames above the test's own frame, restored
    afterwards: a spec nested 300 deep overflows it whatever the exact
    frame counts of decoding, building or labelling are."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 200)
    yield
    sys.setrecursionlimit(limit)


def test_over_deep_specs_end_in_one_error_line(tmp_path, capsys, shallow_stack):
    deep = _nested_product_text(300)
    spec_file = tmp_path / "g.json"
    spec_file.write_text(deep)
    manifest = tmp_path / "m.json"
    manifest.write_text('{"jobs": [{"command": "char-table", "group": ' + deep + "}]}")
    for argv in (["char-table", "--group", deep], ["power-sums", "--group", f"@{spec_file}"],
                 ["batch", str(manifest), "--cache-dir", ""]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(SpecError, match="^group spec is nested too deeply$"):
        cli.run_job({"command": "char-table", "group": _nested_product(300)}, 1)


def test_batch_reports_an_over_deep_job_and_runs_the_others(shallow_stack):
    good = {"command": "char-table", "group": S3}
    deep = {"command": "char-table", "group": _nested_product(300)}
    aggregate, code, _ = cli.run_batch({"jobs": [good, deep, good]}, 1)
    assert code == 1
    reports = aggregate["jobs"]
    assert reports[1]["payload"] == {"error": "group spec is nested too deeply"}
    assert reports[0] == reports[2] == cli.run_job(good, 1)[0]


def test_batch_reports_a_job_too_deep_to_echo_and_runs_the_others(tmp_path, capsys,
                                                                  shallow_stack):
    """Near the recursion limit a manifest can decode while a job's echoed
    input cannot be encoded (nor, one level deeper, keyed for the cache).
    At every depth the manifest decodes, with or without a cache, both good
    jobs are reported; a job too deep to echo becomes a spec error without
    its input."""
    good = {"command": "char-table", "group": S3}
    want = cli.run_job(good, 1)[0]
    unechoed = 0
    for depth in range(90, 100):   # the limit is 200 frames above this test's
        manifest = tmp_path / "m.json"
        manifest.write_text('{"jobs": [' + json.dumps(good) + ', {"command": "char-table", '
                            '"group": ' + _nested_product_text(depth) + "}, "
                            + json.dumps(good) + "]}")
        for cache in ("", str(tmp_path / f"cache{depth}")):
            code = cli.main(["batch", str(manifest), "--cache-dir", cache, "--seed", "1"])
            out, err = capsys.readouterr()
            if not out:          # the manifest itself is too deep to decode
                assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
                continue
            reports = json.loads(out)["jobs"]
            assert reports[0] == reports[2] == want
            if reports[1]["input"] is None:
                assert reports[1]["payload"] == {"error": "group spec is nested too deeply"}
                assert code == 1
                unechoed += 1
    assert unechoed


def _raise(error):
    def handler(job, seed, budgets):
        raise error
    return handler


@pytest.mark.parametrize("error", [IndexError("index 7 is out of bounds"), MemoryError()])
def test_batch_reports_an_internal_error_as_its_own_job_and_never_caches_it(
    error, tmp_path, monkeypatch
):
    monkeypatch.setitem(cli.COMMANDS, "char-table", (_raise(error), ("group",)))
    good = [{"command": "power-sums", "group": S3, "n": n} for n in (1, 2)]
    bad = {"command": "char-table", "group": S3}
    manifest = {"jobs": [good[0], bad, good[1]]}
    cache = tmp_path / "cache"
    for hits in (0, 2):
        aggregate, code, stats = cli.run_batch(manifest, 1, cache_dir=cache)
        assert code == 2
        assert (stats["cache_hits"], stats["cache_misses"]) == (hits, 3 - hits)
        reports = aggregate["jobs"]
        assert [reports[0], reports[2]] == [cli.run_job(job, 1)[0] for job in good]
        assert reports[1]["payload"] == {
            "internal_error": f"{type(error).__name__}: {error}".strip()}
        assert reports[1]["input"] == {"group": S3}
    assert len(list(cache.iterdir())) == 2     # the good jobs' entries only


def test_main_reports_an_internal_error_on_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, "char-table",
                        (_raise(IndexError("index 7 is out of bounds\nfor axis 0")), ("group",)))
    assert cli.main(["char-table", "--group", json.dumps(S3)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: IndexError: index 7 is out of bounds for axis 0\n"
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"jobs": [{"command": "char-table", "group": S3}]}))
    assert cli.main(["batch", str(manifest), "--cache-dir", ""]) == 2
    out, _ = capsys.readouterr()
    assert json.loads(out)["jobs"][0]["payload"]["internal_error"].startswith("IndexError")


def test_interrupts_and_cross_check_failures_keep_their_handling(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, "char-table", (_raise(KeyboardInterrupt()), ("group",)))
    job = {"command": "char-table", "group": S3}
    with pytest.raises(KeyboardInterrupt):
        cli.run_batch({"jobs": [job]}, 1)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["char-table", "--group", json.dumps(S3)])
    failed = errors.CrossCheckFailed("routes disagree")
    monkeypatch.setitem(cli.COMMANDS, "char-table", (_raise(failed), ("group",)))
    aggregate, code, _ = cli.run_batch({"jobs": [job]}, 1, cache_dir=tmp_path)
    assert code == 2
    assert aggregate["jobs"][0]["payload"] == {"cross_check_failure": "routes disagree"}
    assert len(list(tmp_path.iterdir())) == 1   # a cross-check failure is cached
    assert cli.main(["char-table", "--group", json.dumps(S3)]) == 2
    out, _ = capsys.readouterr()
    assert json.loads(out)["payload"] == {"cross_check_failure": "routes disagree"}

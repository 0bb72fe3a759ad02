"""Batch front-end: parse JSON specifications, dispatch computations, emit
deterministic reports.

Exit codes: 0 all asserted checks passed, 1 usage or specification error,
2 a mathematical cross-check failed (the implementation-bug signal).
Reports are byte-identical for identical (spec, seed, version); wall-clock
timing therefore goes to stderr, never into a report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import os
import sys
import time
from collections import namedtuple
from pathlib import Path

from . import CLASS_CAP, DEFAULT_SEED, ORDER_CAP, PAIR_BUDGET, __version__
from .errors import MathCheckError, SpecError


def _lazy(name: str):
    """Module ``name``, executed on its first attribute access (the
    importlib.util.LazyLoader recipe): a run that computes nothing, such as a
    warm batch or a usage error, never loads numpy."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


np = _lazy("numpy")
characters, conjugacy, criteria, gelfand, groups, morphisms = (
    _lazy(f"{__package__}.{name}")
    for name in ("characters", "conjugacy", "criteria", "gelfand", "groups", "morphisms"))

ENV_SEED = "TAUMACKEY_SEED"


# a namedtuple, not a dataclass: importing dataclasses (and with it
# inspect) would cost a warm batch more than its cache reads
Budgets = namedtuple("Budgets", "pairs order classes",
                     defaults=(PAIR_BUDGET, ORDER_CAP, CLASS_CAP))


# ---------------------------------------------------------------------------
# specification parsing
# ---------------------------------------------------------------------------

def _load_json_arg(text: str):
    if text.startswith("@"):
        return json.loads(Path(text[1:]).read_text())
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare shorthand like "inverse"


def _integer(value, what: str) -> int:
    """A JSON integer; strings, floats and booleans are spec errors."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def _non_negative(value: int, what: str) -> int:
    """Seeds (as numpy's generators take them) and budgets are non-negative."""
    if value < 0:
        raise SpecError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _generator_list(spec: dict) -> list:
    gens = spec["generators"]
    if not isinstance(gens, list):
        raise SpecError(f"'generators' must be a list, got {gens!r}")
    return gens


# each group form's keys: the form key first, then the keys it may carry
_GROUP_FORMS = (("family", "n"), ("generators", "degree"), ("product",), ("semidirect",))


def _form(spec, key: str) -> bool:
    """A single-key spec object {key: ...}."""
    return isinstance(spec, dict) and set(spec) == {key}


def build_group(spec, cap: int = ORDER_CAP) -> groups.GroupTable:
    """Group specification: {"family": name, "n": int} |
    {"generators": [cycles], "degree": int} | {"product": [spec, spec]} |
    {"semidirect": {"base": spec, "tau": tau-spec}}; exactly one form, and
    no key outside it."""
    if not isinstance(spec, dict):
        raise SpecError(f"group spec must be an object, got {spec!r}")
    form = next((keys[0] for keys in _GROUP_FORMS
                 if keys[0] in spec and set(spec) <= set(keys)), None)
    if form == "family":
        family, n = spec["family"], spec.get("n")
        if not isinstance(family, str):
            raise SpecError(f"'family' must be a string, got {family!r}")
        if n is not None:
            _integer(n, "'n'")
        return groups.construct_family(family, n, cap)
    if form == "generators":
        gens = _generator_list(spec)
        degree = spec.get("degree")
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise SpecError("generator specs need a positive integer 'degree'")
        if degree > groups.DEGREE_CAP:
            raise SpecError(f"'degree' {degree} exceeds the cap {groups.DEGREE_CAP}")
        perms = [groups.parse_cycles(s, degree) for s in gens]
        return groups._permutation_group(perms, degree, "generators", cap)
    if form == "product":
        parts = spec["product"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise SpecError("'product' takes exactly two group specs")
        return groups.direct_product(build_group(parts[0], cap),
                                     build_group(parts[1], cap), cap)
    if form == "semidirect":
        inner = spec["semidirect"]
        if not isinstance(inner, dict) or not set(inner) <= {"base", "tau"}:
            raise SpecError(f"'semidirect' takes an object of 'base' and 'tau', got {inner!r}")
        base = build_group(inner.get("base"), cap)
        tau = build_tau(base, inner.get("tau"))
        return groups.construct_semidirect_with_involution(base, tau, cap)
    raise SpecError(f"group spec needs one of family/generators/product/semidirect "
                    f"and only that form's keys: {spec}")


def build_tau(G: groups.GroupTable, spec) -> morphisms.GroupMap:
    """tau specification: "inverse" | "identity" | "clifford" |
    {"inner": element} | {"generator_images": {gen: image}}."""
    if spec is None:
        spec = "inverse"
    if _form(spec, "tau"):
        spec = spec["tau"]
    if spec == "inverse":
        return morphisms.tau_inverse(G)
    if spec == "identity":
        return morphisms.tau_identity(G)
    if spec == "clifford":
        return morphisms.tau_clifford(G)
    if _form(spec, "inner"):
        return morphisms.tau_inner(G, G.element_id(spec["inner"]))
    if _form(spec, "generator_images"):
        images = spec["generator_images"]
        if not isinstance(images, dict):
            raise SpecError(f"'generator_images' must be an object, got {images!r}")
        resolved = [(G.element_id(k), G.element_id(v)) for k, v in images.items()]
        pairs = dict(resolved)
        if len(pairs) != len(resolved):
            raise SpecError("two keys of 'generator_images' name one element")
        return morphisms.tau_from_generator_images(G, pairs)
    raise SpecError(f"bad tau spec: {spec!r}")


def build_sigma(G: groups.GroupTable, spec) -> morphisms.GroupMap:
    """Automorphism specification: "identity" | {"inner": element}."""
    if spec == "identity":
        return morphisms.validate(G, np.arange(G.order), "automorphism")
    if _form(spec, "inner"):
        g0 = G.element_id(spec["inner"])
        return morphisms.validate(G, G.conj_map(g0), "automorphism")
    raise SpecError(f"bad sigma spec: {spec!r}")


def build_subgroup(G: groups.GroupTable, spec) -> np.ndarray:
    """Subgroup specification: {"generators": [...]} |
    {"centralizer_of_sigma": sigma-spec}; returns the subgroup's generator
    ids."""
    if _form(spec, "generators"):
        return np.array([G.element_id(s) for s in _generator_list(spec)], dtype=np.int64)
    if _form(spec, "centralizer_of_sigma"):
        return gelfand.fixed_subgroup(build_sigma(G, spec["centralizer_of_sigma"]))[1]
    raise SpecError(f"bad subgroup spec: {spec!r}")


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------

def _exact(value: int) -> dict:
    """Exact integers travel as decimal strings, tagged."""
    return {"value": str(int(value)), "exact": True}


def _identity(holds: bool, residual: float | None = None) -> dict:
    out: dict = {"holds": bool(holds)}
    if residual is None:
        out["exact"] = True
    else:
        out["residual"] = float(residual)
    return out


def _fraction(f) -> str:
    """A Fraction as "p/q", or "p" when it is whole."""
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _verdict_payload(v: criteria.SRVerdict) -> dict:
    payload = {
        "definition": {
            "multiplicity_free": v.definition_mf,
            "all_rows_self_conjugate": v.definition_selfconj,
            "holds": v.definition,
        },
        "mackey_cosets": (v.mackey_cosets if v.mackey_cosets is not None
                          else {"skipped": v.cosets_skipped}),
        "mackey_wigner": {
            "holds": v.mackey_wigner,
            "sum_twisted_cubes": _exact(v.sums[0]),
            "sum_centralizer_squares": _exact(v.sums[1]),
        },
        "witnesses": v.witnesses,
        "partially_verified": v.partially_verified,
        "agree": v.agree,
    }
    if v.agree:
        payload["simply_reducible"] = v.verdicts[0]
    return payload


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, exit_code)
# ---------------------------------------------------------------------------

def _cmd_char_table(job, seed, budgets):
    G = build_group(job["group"], budgets.order)
    table = characters.compute_character_table(G, seed, budgets.classes)
    return characters.table_to_jsonable(table), 0


def _cmd_fs(job, seed, budgets):
    G = build_group(job["group"], budgets.order)
    tau = build_tau(G, job.get("tau"))
    table = characters.compute_character_table(G, seed, budgets.classes)
    tw = characters.twisted_fs_indicators(table, tau)
    census = characters.self_conjugate_census(table, tau)
    payload = {
        "order": G.order,
        "degrees": [int(d) for d in table.degrees],
        "twisted_indicators": [int(x) for x in tw.values],
        "indicator_residual": tw.max_residual,
        "census": {
            "self_conjugate_rows": census.count,
            "tau_invariant_classes": census.invariant_class_route,
            "averaged_squared_counts": census.squared_count_route,
            "equal": _identity(True),
        },
        "count_expansion": _identity(True, tw.expansion_residual),
    }
    if np.array_equal(tau.images, G.inverse):
        payload["classical_indicators"] = [int(x) for x in tw.values]
    return payload, 0


def _cmd_simply_reducible(job, seed, budgets):
    G = build_group(job["group"], budgets.order)
    tau = build_tau(G, job.get("tau"))
    table = characters.compute_character_table(G, seed, budgets.classes)
    v = criteria.simply_reducible_verdict(table, tau, budgets.pairs)
    return _verdict_payload(v), 0 if v.agree else 2


def _cmd_power_sums(job, seed, budgets):
    G = build_group(job["group"], budgets.order)
    tau = build_tau(G, job.get("tau"))
    n = _integer(job.get("n", 2), "'n'")
    rep = conjugacy.power_sum_report(G, tau, n, budgets.pairs)
    return {
        "n": n,
        "sum_centralizer_pow": _exact(rep.sum_centralizer_pow),
        "sum_twisted_pow": _exact(rep.sum_twisted_square_pow),
        "equal": rep.equal,
        "verified_against_orbits": (rep.verified_against_orbits
                                    if rep.verified_against_orbits is not None
                                    else {"skipped": rep.skipped_reason}),
    }, 0


def _cmd_gelfand(job, seed, budgets):
    G = build_group(job["group"], budgets.order)
    tau = build_tau(G, job.get("tau"))
    space = gelfand.build_coset_space(G, build_subgroup(G, job["subgroup"]))
    gelfand.check_pair_budget(space.size, budgets.pairs)
    table = characters.compute_character_table(G, seed, budgets.classes)
    rep = gelfand.gelfand_criteria_report(space, tau, table, budgets.pairs)
    payload = {
        "order": G.order,
        "subgroup_order": len(space.subgroup),
        "points": space.size,
        "gelfand": rep.gelfand,
        "rank": rep.rank,
        "multiplicities": [int(m) for m in rep.multiplicities],
        "hypothesis_twisted_equivalent": rep.hypothesis_holds,
        "weak_symmetry": rep.weak_symmetry,
        "subgroup_tau_invariant": rep.subgroup_tau_invariant,
        "conditions": {
            "skew_dim_zero": rep.cond_skew_dim_zero,
            "orbits_symmetric": rep.cond_orbits_symmetric,
            "double_cosets_invariant": rep.cond_cosets_invariant,
            "constituents_indicator_one": rep.cond_constituents_positive,
        },
        "orbit_analysis": {
            "orbits": rep.analysis.orbit_count,
            "symmetric": rep.analysis.m_symmetric,
            "antisymmetric": rep.analysis.m_antisymmetric,
            "hom_sym_dim": rep.analysis.hom_sym_dim,
            "hom_skew_dim": rep.analysis.hom_skew_dim,
        },
        "equivalences": (
            _identity(True) if rep.hypothesis_holds
            else {"skipped": "twisted permutation representation not equivalent"}
        ),
    }
    if rep.gelfand:
        tw = gelfand.twisted_fs_gelfand(space, tau, table, rep)
        sph = tw.spherical
        payload["spherical"] = {
            "constituent_rows": [int(i) for i in sph.constituent_rows],
            "normalization": _identity(True, sph.normalization_residual),
            "inversion": _identity(True, sph.inversion_residual),
            "orthogonality": _identity(True, sph.orthogonality_residual),
        }
        payload["twisted_pair"] = {
            "indicators": [int(x) for x in tw.indicator_values],
            "averaged_indicator": _identity(True, tw.averaged_indicator_residual),
            "squared_count_average": {
                "lhs": _fraction(tw.degree_sum_lhs),
                "rhs": _fraction(tw.degree_sum_rhs),
                "exact": True,
                "holds": tw.degree_sum_lhs == tw.degree_sum_rhs,
            },
            "count_inversion": _identity(True, tw.count_inversion_residual),
            "self_conjugate_constituents": tw.self_conjugate_constituents,
            "tau_invariant_k_orbits": (
                tw.tau_invariant_k_orbits
                if tw.tau_invariant_k_orbits is not None
                else {"skipped": "K is not tau-invariant"}
            ),
        }
    else:
        payload["spherical"] = {"skipped": "pair is not multiplicity-free"}
        payload["twisted_pair"] = {"skipped": "pair is not multiplicity-free"}
    return payload, 0


def _cmd_condition_star(job, seed, budgets):
    G = build_group(job["group"], budgets.order)
    sigma = build_sigma(G, job["sigma"])
    star = gelfand.condition_star(G, sigma, seed, budgets.classes)
    payload = {
        "holds": star.holds,
        "fixed_subgroup_order": star.fixed_subgroup_order,
        "omega_size": star.omega_size,
        "omega_classes_in_group": star.omega_classes_in_group,
        "omega_classes_in_fixed_subgroup": star.omega_classes_in_fixed_subgroup,
        "gelfand": (
            star.gelfand if star.gelfand is not None
            else {"skipped": "sigma is not an involution"}
        ),
        "rank": star.rank,
    }
    return payload, 0


def _cmd_clifford_battery(job, seed, budgets):
    n_max = _integer(job.get("n", 5), "'n'")
    if n_max < 1:
        raise SpecError(f"clifford-battery 'n' must be at least 1, got {n_max}")
    entries = []
    worst = 0
    for n in range(1, n_max + 1):
        G = groups.construct_family("clifford", n, budgets.order)
        tau = morphisms.tau_clifford(G)
        table = characters.compute_character_table(G, seed, budgets.classes)
        v = criteria.simply_reducible_verdict(table, tau, budgets.pairs)
        closed_form = 2 ** (3 * n + 1)
        entries.append({
            "n": n,
            "order": G.order,
            "tau": "sign-twisted" if n % 4 == 3 else "inverse",
            "verdict": _verdict_payload(v),
            "closed_form_2_pow_3n_plus_1": _exact(closed_form),
            "matches_closed_form": v.sums[1] == closed_form,
        })
        worst = max(worst, 0 if v.agree else 2)
    return {"entries": entries}, worst


# command -> (handler, the job keys it reads).  The parser gives each
# command one flag per key, and run_job refuses a job that lacks a key or
# carries one its command does not read; "tau" and "n" have defaults, and
# any job may carry "seed".
COMMANDS = {
    "char-table": (_cmd_char_table, ("group",)),
    "fs": (_cmd_fs, ("group", "tau")),
    "simply-reducible": (_cmd_simply_reducible, ("group", "tau")),
    "power-sums": (_cmd_power_sums, ("group", "tau", "n")),
    "gelfand": (_cmd_gelfand, ("group", "tau", "subgroup")),
    "condition-star": (_cmd_condition_star, ("group", "sigma")),
    "clifford-battery": (_cmd_clifford_battery, ("n",)),
}
_DEFAULTED = {"tau", "n"}


# ---------------------------------------------------------------------------
# job running, reports, cache
# ---------------------------------------------------------------------------

def _report_header(job, seed: int, budgets: Budgets) -> dict:
    """The fields every job report starts with; a job that is not an object
    is echoed whole as its input."""
    is_object = isinstance(job, dict)
    return {
        "tool": "taumackey",
        "version": __version__,
        "command": job.get("command") if is_object else None,
        "input": {k: v for k, v in job.items() if k != "command"} if is_object else job,
        "seed": seed,
        "budget_pairs": budgets.pairs,
    }


_TOO_DEEP = "group spec is nested too deeply"


def run_job(job: dict, seed: int, budgets: Budgets | None = None) -> tuple[dict, int]:
    """Run one job spec into a (report, exit_code) pair; the job's own
    'seed' replaces ``seed``."""
    budgets = budgets or Budgets()
    if not isinstance(job, dict):
        raise SpecError(f"a job must be an object, got {job!r}")
    seed = _non_negative(_integer(job.get("seed", seed), "'seed'"), "'seed'")
    command = job.get("command")
    if command not in COMMANDS:
        raise SpecError(f"unknown command {command!r}; expected one of {tuple(COMMANDS)}")
    handler, keys = COMMANDS[command]
    for key in keys:
        if key not in job and key not in _DEFAULTED:
            raise SpecError(f"{command} job needs {key!r}")
    unread = sorted(set(job) - set(keys) - {"command", "seed"})
    if unread:
        raise SpecError(f"{command} job does not read {', '.join(map(repr, unread))}")
    report = _report_header(job, seed, budgets)
    try:
        payload, code = handler(job, seed, budgets)
    except MathCheckError as exc:
        report["payload"] = {"cross_check_failure": str(exc)}
        return report, 2
    except RecursionError:  # only group specs recurse: building and labelling
        raise SpecError(_TOO_DEEP) from None
    report["payload"] = payload
    return report, code


def _one_line(exc: Exception) -> str:
    return " ".join(f"{type(exc).__name__}: {exc}".split())


def render_report(report: dict) -> str:
    """One line of compact JSON: without an indent, json's C encoder runs."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def render_text(report: dict) -> str:
    lines = []

    def walk(obj, depth):
        pad = "  " * depth
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}- [{i}]")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}- {v}")
        else:
            lines.append(f"{pad}{obj}")

    walk(report, 0)
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _source_hash(package: Path = Path(__file__).parent) -> str:
    """Hash of the package's Python sources: a report cached by other code
    is never served, whatever the version string says."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _cache_key(job: dict, seed: int, budgets: Budgets) -> str | None:
    """The job's cache key, or None for a job nested too deeply to encode."""
    blob = {"job": job, "seed": seed, "budget": [budgets.pairs, budgets.order, budgets.classes],
            "version": __version__, "source": _source_hash()}
    try:
        return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
    except RecursionError:
        return None


def _error_report(job, seed: int, budgets: Budgets, key: str, message: str) -> dict:
    report = _report_header(job, seed, budgets)
    report["payload"] = {key: message}
    return report


def _run_isolated(job, seed: int, budgets: Budgets, cache_path: Path | None = None) -> dict:
    """One job, with every error but an interrupt contained in its own
    report.  A spec error exits 1; any other exception (a bug, or a resource
    running out) is an internal error that exits 2 and, as it may be
    transient, is not written to ``cache_path``.  A job nested too deeply to
    describe or to encode is a spec error whose report leaves its input out."""
    try:
        report, code = run_job(job, seed, budgets)
    except SpecError as exc:
        report, code = _error_report(job, seed, budgets, "error", str(exc)), 1
    except RecursionError:
        report, code = _error_report(None, seed, budgets, "error", _TOO_DEEP), 1
    except Exception as exc:
        report, code = _error_report(job, seed, budgets, "internal_error", _one_line(exc)), 2
    outcome = {"report": report, "exit_code": code}
    # here the encoder runs a frame deeper than on the batch report that
    # holds this one, so an outcome that encodes here encodes there too
    try:
        text = render_report(outcome)
    except RecursionError:
        outcome = {"report": _error_report(None, seed, budgets, "error", _TOO_DEEP),
                   "exit_code": 1}
        text = render_report(outcome)
    if cache_path is not None and "internal_error" not in outcome["report"]["payload"]:
        _write_cached(cache_path, text)
    return outcome


def _read_cached(path: Path) -> dict | None:
    """A cached job outcome, or None when the entry is missing, torn or not
    an outcome: an object of exactly a report object and an exit code 0, 1
    or 2."""
    try:
        outcome = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (isinstance(outcome, dict) and outcome.keys() == {"report", "exit_code"}
            and isinstance(outcome["report"], dict)
            and type(outcome["exit_code"]) is int and outcome["exit_code"] in (0, 1, 2)):
        return outcome
    return None


def _write_cached(path: Path, text: str) -> None:
    """Write to a temp file beside the entry, then rename it into place, so
    a killed run never leaves a partial entry under the key."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def run_batch(
    manifest: dict,
    seed: int,
    budgets: Budgets | None = None,
    cache_dir: Path | None = None,
) -> tuple[dict, int, dict]:
    """Run every job in a manifest in order; per-job reports are cached by a
    content hash of (spec, seed, budgets, version, package source), and an
    entry that cannot be read as an outcome counts as a miss and is
    rewritten.  Returns (aggregate, worst_exit_code, cache_stats)."""
    budgets = budgets or Budgets()
    jobs = manifest.get("jobs") if isinstance(manifest, dict) else None
    if not isinstance(jobs, list):
        raise SpecError("manifest must be an object with a 'jobs' list")
    stats = {"jobs": len(jobs), "cache_hits": 0, "cache_misses": 0}
    results = []
    for job in jobs:
        key = None if cache_dir is None else _cache_key(job, seed, budgets)
        path = None if key is None else cache_dir / f"{key}.json"
        outcome = None if path is None else _read_cached(path)
        if outcome is None:
            outcome = _run_isolated(job, seed, budgets, path)
            if cache_dir is not None:
                stats["cache_misses"] += 1
        else:
            stats["cache_hits"] += 1
        results.append(outcome)
    reports = [r["report"] for r in results]
    worst = max((r["exit_code"] for r in results), default=0)
    aggregate = {
        "tool": "taumackey",
        "version": __version__,
        "command": "batch",
        "seed": seed,
        "budget_pairs": budgets.pairs,
        "jobs": reports,
        "exit_code": worst,
    }
    return aggregate, worst, stats


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-pairs", type=int, default=PAIR_BUDGET)
    p.add_argument("--budget-order", type=int, default=ORDER_CAP)
    p.add_argument("--budget-classes", type=int, default=CLASS_CAP)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", type=str, default=None)


class _Parser(argparse.ArgumentParser):
    """Usage errors are specification errors: one line and exit 1."""

    def error(self, message):
        raise SpecError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taumackey",
        description=(
            "Exact twisted Frobenius-Schur, simple-reducibility, and "
            "Gelfand-pair checks on small finite groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        p = sub.add_parser(name)
        for key in keys:
            p.add_argument(f"--{key}", type=int if key == "n" else str,
                           help=None if key == "n" else f"{key} spec as JSON or @file")
        _add_common(p)
    b = sub.add_parser("batch")
    b.add_argument("manifest", type=str)
    b.add_argument("--cache-dir", type=str, default=".taumackey-cache")
    _add_common(b)
    return parser


def _effective_seed(arg_seed) -> int:
    if arg_seed is not None:
        return _non_negative(arg_seed, "--seed")
    env = os.environ.get(ENV_SEED)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise SpecError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
        return _non_negative(value, ENV_SEED)
    return DEFAULT_SEED


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = _parser().parse_args(argv)
        seed = _effective_seed(args.seed)
        budgets = Budgets(
            _non_negative(args.budget_pairs, "--budget-pairs"),
            _non_negative(args.budget_order, "--budget-order"),
            _non_negative(args.budget_classes, "--budget-classes"),
        )
        if args.command == "batch":
            manifest = json.loads(Path(args.manifest).read_text())
            cache_dir = Path(args.cache_dir) if args.cache_dir else None
            report, code, stats = run_batch(manifest, seed, budgets, cache_dir)
            summary = f"batch: {stats['jobs']} jobs, {stats['cache_hits']} cache hits, "
        else:
            job = {"command": args.command}
            for key in COMMANDS[args.command][1]:
                raw = getattr(args, key)
                if raw is not None:
                    job[key] = raw if key == "n" else _load_json_arg(raw)
            report, code = run_job(job, seed, budgets)
            summary = f"{args.command}: "
        text = render_report(report) if args.format == "json" else render_text(report)
        _emit(text, args.out)
        print(f"{summary}{time.perf_counter() - started:.2f}s", file=sys.stderr)
        return code
    except (SpecError, OSError, json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError: input nested too deeply to decode or to echo
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, or a resource running out
        print(f"internal error: {_one_line(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

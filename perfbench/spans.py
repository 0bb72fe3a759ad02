"""Spans around the package's public functions, recorded from outside it.

`Tracer.install()` replaces every public module-level function of each
layer with a timing wrapper, at every module binding that holds it (so
`conjugacy.orbit_labels` and `gelfand.orbit_labels` are wrapped as well as
`_kernels.orbit_labels`).  Each span records its parent, so self time
(span minus child spans) adds up per layer; `uninstall()` restores the
originals.  Counts come from call arguments and results only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "taumackey"
LAYERS = ("groups", "morphisms", "conjugacy", "_kernels", "characters",
          "criteria", "gelfand", "cli")


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter: `_kernels` reports as `kernels`."""
    return layer.lstrip("_")

# Helpers called once per element, product or label cost less than a span;
# their time counts to the calling span.  `cli.main` is the process entry.
UNWRAPPED = {
    "groups.perm_compose", "groups.perm_label", "groups.parse_cycles",
    "groups.clifford_mul", "groups.clifford_inverse",
    "_kernels.use_numba", "_kernels.warm_up", "cli.main",
}

# `cli.run_job` marks a job boundary inside `run_batch`.  Its self time is
# the command handlers' glue and, like the benchmark's own spans, counts to
# `other_s`, so it is not a layer.
JOB_SPAN = "cli.run_job"

BUILDERS = ("construct_family", "cyclic", "symmetric", "alternating", "dihedral",
            "quaternion8", "clifford", "direct_product",
            "construct_semidirect_with_involution", "enumerate_from_generators")

# metric -> functions whose summed self time it reports
SELF_TIME = {
    "groups.build_s": [f"groups.{f}" for f in BUILDERS],
    "groups.subgroup_s": ["groups.subgroup_closure", "groups.check_subgroup",
                          "groups.subgroup_table"],
    "morphisms.validate_s": ["morphisms.validate"],
    "conjugacy.classes_s": ["conjugacy.conjugacy_classes"],
    "conjugacy.twisted_squares_s": ["conjugacy.count_twisted_squares"],
    "conjugacy.pair_scan_s": ["conjugacy.simultaneous_conjugation_scan"],
    "kernels.orbit_labels_s": ["_kernels.orbit_labels", "_kernels.orbit_labels_numpy",
                                "_kernels.orbit_labels_numba"],
    "characters.table_s": ["characters.compute_character_table"],
    "characters.tensor_s": ["characters.tensor_multiplicities"],
    "characters.indicators_s": ["characters.fs_indicators",
                                "characters.twisted_fs_indicators"],
    "criteria.verdict_s": ["criteria.simply_reducible_verdict", "criteria.check_definition",
                           "criteria.check_mackey_cosets", "criteria.check_mackey_wigner"],
    "gelfand.coset_space_s": ["gelfand.build_coset_space"],
    "gelfand.orbit_analysis_s": ["gelfand.orbit_analysis"],
    "gelfand.symmetry_s": ["gelfand.weak_symmetry_holds",
                           "gelfand.double_coset_tau_invariant"],
    "gelfand.spherical_s": ["gelfand.spherical_functions"],
    "gelfand.condition_star_s": ["gelfand.condition_star"],
    "cli.parse_s": ["cli.build_group", "cli.build_tau", "cli.build_subgroup",
                    "cli.build_sigma"],
    "cli.report_s": ["cli.render_report"],
}


def _count_build(args, result, exc):
    return {"order": result.order}


def _count_validate(args, result, exc):
    return {"elements": args["G"].order}


def _count_scan(args, result, exc):
    if args["n"] != 2:
        return {}
    if exc is not None:
        # a zero budget is the sums-only call, not a skipped scan
        return {"skipped": 1} if args["pair_budget"] > 0 else {}
    return {"pair_states": args["G"].order ** 2}


def _count_kernel(args, result, exc):
    moves, states = args["moves"].shape
    return {"moves": moves, "states": states}


def _count_table(args, result, exc):
    return {"table": id(result), "classes": result.class_count}


def _count_verdict(args, result, exc):
    return {"partial": int(result.partially_verified)}


def _count_space(args, result, exc):
    return {"points": result.size}


def _count_batch(args, result, exc):
    stats = result[2]
    return {"hits": stats["cache_hits"], "misses": stats["cache_misses"]}


COUNTERS = {
    **{f"groups.{f}": _count_build for f in BUILDERS},
    "morphisms.validate": _count_validate,
    "conjugacy.simultaneous_conjugation_scan": _count_scan,
    "_kernels.orbit_labels": _count_kernel,
    "characters.compute_character_table": _count_table,
    "criteria.simply_reducible_verdict": _count_verdict,
    "gelfand.build_coset_space": _count_space,
    "cli.run_batch": _count_batch,
}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "counts")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.counts = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory while installed; single-threaded use only."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def begin(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(span)
                if counter:
                    span.counts = _safe_count(counter, signature, args, kwargs, None, exc)
                raise
            tracer.end(span)
            if counter:
                span.counts = _safe_count(counter, signature, args, kwargs, result, None)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue
        everywhere = [m for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, name, "job" if name == JOB_SPAN else layer))
        for module in everywhere:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _safe_count(counter, signature, args, kwargs, result, exc):
    """Counts for one span; an argument or result of another shape than the
    counter expects gives no counts rather than a failed run."""
    try:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return counter(bound.arguments, result, exc)
    except (AttributeError, TypeError, KeyError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def _job(spans: list[Span], span: Span) -> Span:
    """The job a span belongs to: its benchmark span in a pass (which holds
    a `run_job` span), its innermost `run_job` span in a batch."""
    job = None
    while span.layer != "bench" and span.parent >= 0:
        if job is None and span.layer == "job":
            job = span
        span = spans[span.parent]
    return span if span.layer == "bench" or job is None else job


def _is_top_build(spans: list[Span], span: Span) -> bool:
    """A group build not nested in another one (each table counted once)."""
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in SELF_TIME["groups.build_s"]:
            return False
        parent = spans[parent].parent
    return True


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer self times, their breakdowns and counts for spans recorded
    over `wall` seconds; `other_s` closes the sum to the wall time."""
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        by_name[span.name] += t
        by_layer[span.layer] += t
    out = {f"{metric_prefix(layer)}.self_s": by_layer[layer] for layer in LAYERS}
    out.update({m: sum(by_name[f] for f in fns) for m, fns in SELF_TIME.items()})
    out["other_s"] = wall - sum(by_layer[layer] for layer in LAYERS)

    counts = defaultdict(int)
    tables = {}
    for span in spans:
        c = span.counts
        if not c:
            continue
        if "order" in c and _is_top_build(spans, span):
            counts["groups.elements_built"] += c["order"]
        counts["morphisms.validated_elements"] += c.get("elements", 0)
        counts["conjugacy.pair_states"] += c.get("pair_states", 0)
        counts["conjugacy.scans_skipped"] += c.get("skipped", 0)
        if "moves" in c:
            counts["kernels.calls"] += 1
            counts["kernels.state_moves"] += c["moves"] * c["states"]
        if "table" in c:
            # a table is cached on its group, so repeated calls within one
            # job return the same object; ids are unique only within a job
            tables[(id(_job(spans, span)), c["table"])] = c["classes"]
        counts["criteria.partial_verdicts"] += c.get("partial", 0)
        counts["gelfand.points"] += c.get("points", 0)
    counts["characters.classes_tabulated"] = sum(tables.values())
    for name in ("groups.elements_built", "morphisms.validated_elements",
                 "conjugacy.pair_states", "conjugacy.scans_skipped", "kernels.calls",
                 "kernels.state_moves", "characters.classes_tabulated",
                 "criteria.partial_verdicts", "gelfand.points"):
        out[name] = counts[name]
    return out


def batch_metrics(spans: list[Span]) -> dict[str, float]:
    """`run_batch` minus its jobs, and the cache outcomes it returned."""
    own = self_times(spans)
    out = {"cli.batch_self_s": sum(t for s, t in zip(spans, own) if s.name == "cli.run_batch"),
           "cli.cache_hits": 0, "cli.cache_misses": 0}
    for span in spans:
        if span.name == "cli.run_batch" and span.counts:
            out["cli.cache_hits"] += span.counts["hits"]
            out["cli.cache_misses"] += span.counts["misses"]
    return out


def job_slice(spans: list[Span], job: str, function: str) -> float | None:
    """Inclusive seconds of `function` inside the benchmark span of `job`."""
    roots = {i for i, s in enumerate(spans) if s.layer == "bench" and s.name == job}
    if not roots:
        return None
    total = 0.0
    for span in spans:
        if span.name != function:
            continue
        parent = span.parent
        while parent >= 0 and parent not in roots:
            parent = spans[parent].parent
        if parent >= 0:
            total += span.seconds
    return total


def kernel_rows(spans: list[Span], min_states: int = 100_000) -> list[dict]:
    """Shape and time of every large orbit-kernel call, by job."""
    rows = []
    for span in spans:
        if span.name != "_kernels.orbit_labels" or not span.counts:
            continue
        if span.counts["states"] < min_states:
            continue
        rows.append({"job": _job(spans, span).name, "moves": span.counts["moves"],
                     "states": span.counts["states"], "seconds": span.seconds})
    return rows

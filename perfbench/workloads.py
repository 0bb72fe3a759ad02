"""Workload definitions, seeded inputs and the correctness oracle.

Each workload is a fixed list of jobs in the batch-manifest job format.
A seed changes only how the inputs are presented, never the work or the
answer: it picks the character-table seed, the job order and a relabelling
of permutation points in generator, subgroup and sigma specs (conjugate
inputs).  Every job carries the exit code and verdict fields measured on
the reference commit; `verdict()` extracts the same fields from a report.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

# Generators of S4 wr Z2 on 8 points (order 1152) and two subgroups.
_S4WRZ2 = {"generators": ["(1 2)", "(1 2 3 4)", "(1 5)(2 6)(3 7)(4 8)"], "degree": 8}
_S4xS4 = {"generators": ["(1 2)", "(1 2 3 4)", "(5 6)", "(5 6 7 8)"]}
# An order-64 subgroup of index 18: the kernel of the character of the
# Sylow 2-subgroup D4 wr Z2 that is -1 on (1 3) and on (5 7).
_K64 = {"generators": ["(1 2 3 4)", "(5 6 7 8)", "(1 3)(5 7)", "(1 5)(2 6)(3 7)(4 8)"]}


def _family(name: str, n: int | None = None) -> dict:
    return {"family": name} if n is None else {"family": name, "n": n}


def _product(a: dict, b: dict) -> dict:
    return {"product": [a, b]}


def _job(name, command, expect, largest=False, **fields):
    return {
        "name": name,
        "job": {"command": command, **fields},
        "expect": {"exit_code": 0, **expect},
        "largest": largest,
    }


S6 = _family("symmetric", 6)

# ladder: big orders near the budgets (4M pair states, the 4096 dense cap,
# order 5040 off the dense path).  Loads Cayley closure, map validation and
# the G x G pair scan; character tables are light and gelfand does not run.
LADDER = [
    _job("power-sums D1000", "power-sums", {"equal": True}, largest=True,
         group=_family("dihedral", 1000), tau="inverse", n=2),
    _job("power-sums D500", "power-sums", {"equal": True},
         group=_family("dihedral", 500), tau="inverse", n=2),
    _job("power-sums CL10", "power-sums", {"equal": True},
         group=_family("clifford", 10), tau="clifford", n=2),
    _job("power-sums CL11", "power-sums", {"equal": True},
         group=_family("clifford", 11), tau="clifford", n=2),
    _job("power-sums S7", "power-sums", {"equal": False},
         group=_family("symmetric", 7), tau="inverse", n=2),
    _job("simply-reducible S6", "simply-reducible",
         {"agree": True, "simply_reducible": False}, group=S6, tau="inverse"),
    _job("simply-reducible A6xZ2", "simply-reducible",
         {"agree": True, "simply_reducible": False},
         group=_product(_family("alternating", 6), _family("cyclic", 2)), tau="inverse"),
    _job("simply-reducible S4xS4", "simply-reducible",
         {"agree": True, "simply_reducible": True},
         group=_product(_family("symmetric", 4), _family("symmetric", 4)), tau="inverse"),
]

# classalg: moderate orders with many classes (up to the 200-class cap), the
# only workload where the character layer does most of the work.
CLASSALG = [
    _job("simply-reducible D397", "simply-reducible",
         {"agree": True, "simply_reducible": True}, largest=True,
         group=_family("dihedral", 397), tau="inverse"),
    _job("char-table D300", "char-table", {"classes": 153},
         group=_family("dihedral", 300)),
    _job("fs D397", "fs", {"indicator_counts": [0, 0, 200]},
         group=_family("dihedral", 397), tau="inverse"),
    _job("simply-reducible CL7", "simply-reducible",
         {"agree": True, "simply_reducible": False},
         group=_family("clifford", 7), tau="inverse"),
    _job("fs CL7", "fs", {"indicator_counts": [0, 2, 128]},
         group=_family("clifford", 7), tau="inverse"),
    _job("fs A5xA5", "fs", {"indicator_counts": [0, 0, 25]},
         group=_product(_family("alternating", 5), _family("alternating", 5)),
         tau="inverse"),
    # order 3600: |G|^2 is over the pair budget, so the coset route is
    # skipped and the verdict is partial
    _job("simply-reducible A5xA5", "simply-reducible",
         {"agree": True, "simply_reducible": False},
         group=_product(_family("alternating", 5), _family("alternating", 5)),
         tau="inverse"),
]

# gelfand: coset spaces and the symmetry checks; order 1152 > 1024 also puts
# sampled map validation on the path.  No G x G scan runs here.
GELFAND = [
    _job("gelfand S4wrZ2/S4xS4", "gelfand", {"gelfand": True, "rank": 2}, largest=True,
         group=_S4WRZ2, subgroup=_S4xS4, tau="inverse"),
    _job("gelfand S4wrZ2/K64", "gelfand", {"gelfand": True, "rank": 4},
         group=_S4WRZ2, subgroup=_K64, tau="inverse"),
    _job("gelfand S6/S5", "gelfand", {"gelfand": True, "rank": 2},
         group=S6, subgroup={"generators": ["(1 2)", "(1 2 3 4 5)"]}, tau="inverse"),
    _job("gelfand S6/S4xS2", "gelfand", {"gelfand": True, "rank": 3},
         group=S6, subgroup={"generators": ["(1 2)", "(1 2 3 4)", "(5 6)"]}, tau="inverse"),
    _job("gelfand S6/S3xS3", "gelfand", {"gelfand": True, "rank": 4},
         group=S6, subgroup={"generators": ["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"]},
         tau="inverse"),
    _job("gelfand S6/S3wrS2", "gelfand", {"gelfand": True, "rank": 2},
         group=S6, subgroup={"generators": ["(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)"]},
         tau="inverse"),
    _job("gelfand S6/S2wrS3", "gelfand", {"gelfand": True, "rank": 3},
         group=S6, subgroup={"generators": ["(1 2)", "(1 3)(2 4)", "(1 3 5)(2 4 6)"]},
         tau="inverse"),
    _job("condition-star S6", "condition-star", {"holds": True, "rank": 3},
         group=S6, sigma={"inner": "(1 2)(3 4)(5 6)"}),
]

# The batch probe of every workload: the 28 small jobs of the acceptance
# manifest, driven through the batch entry point as users do.  Fixed per-job
# and per-process costs dominate, so a change that taxes every call shows
# there.  Verdicts in manifest order.
ACCEPTANCE_MANIFEST = Path("manifests") / "acceptance.json"
_SR_TRUE = {"agree": True, "simply_reducible": True}
_SR_FALSE = {"agree": True, "simply_reducible": False}
ACCEPTANCE_EXPECT = [
    _SR_TRUE, _SR_TRUE, _SR_TRUE, _SR_FALSE,
    {"entries": [[n, True, True] for n in range(1, 6)]},
    {"indicator_counts": [0, 4, 2]}, {"indicator_counts": [0, 0, 3]},
    {"indicator_counts": [0, 0, 5]}, {"indicator_counts": [0, 0, 7]},
    {"indicator_counts": [0, 2, 2]}, {"indicator_counts": [0, 0, 5]},
    {"indicator_counts": [0, 0, 4]}, {"indicator_counts": [1, 0, 4]},
    {"indicator_counts": [0, 2, 8]}, {"indicator_counts": [2, 0, 8]},
    {"equal": True}, {"equal": False},
    {"classes": 1}, {"classes": 7},
    {"gelfand": True, "rank": 2}, {"gelfand": True, "rank": 2},
    {"gelfand": True, "rank": 3}, {"gelfand": True, "rank": 4},
    {"gelfand": True, "rank": 5}, {"gelfand": True, "rank": 2},
    {"holds": True, "rank": 2}, {"holds": True, "rank": 3},
    {"indicator_counts": [0, 0, 5]},
]


def acceptance(root: Path) -> list[dict]:
    """The acceptance manifest's jobs with their recorded verdicts."""
    manifest = json.loads((root / ACCEPTANCE_MANIFEST).read_text())["jobs"]
    if len(manifest) != len(ACCEPTANCE_EXPECT):
        raise ValueError(f"{ACCEPTANCE_MANIFEST} has {len(manifest)} jobs, "
                         f"verdicts are recorded for {len(ACCEPTANCE_EXPECT)}")
    return [
        {"name": f"acceptance[{i}] {job['command']}", "job": job,
         "expect": {"exit_code": 0, **expect}}
        for i, (job, expect) in enumerate(zip(manifest, ACCEPTANCE_EXPECT))
    ]


# The jobs of one in-process pass of each workload.
WORKLOADS = {"ladder": LADDER, "classalg": CLASSALG, "gelfand": GELFAND}


def verdict(report: dict) -> dict:
    """The seed-independent answer fields of one report.

    Pins verdicts only, not whether a route was skipped, so lifting a
    budget skip is not scored as a changed answer.
    """
    payload = report.get("payload", {})
    if "error" in payload or "cross_check_failure" in payload:
        return {"error": payload.get("error") or payload.get("cross_check_failure")}
    command = report.get("command")
    if command == "power-sums":
        return {"equal": payload["equal"]}
    if command == "simply-reducible":
        return {"agree": payload["agree"],
                "simply_reducible": payload.get("simply_reducible")}
    if command == "char-table":
        return {"classes": len(payload["degrees"])}
    if command == "fs":
        values = payload["twisted_indicators"]
        return {"indicator_counts": [values.count(v) for v in (-1, 0, 1)]}
    if command == "gelfand":
        return {"gelfand": payload["gelfand"], "rank": payload["rank"]}
    if command == "condition-star":
        return {"holds": payload["holds"], "rank": payload["rank"]}
    if command == "clifford-battery":
        return {"entries": [
            [e["n"], e["verdict"]["agree"], e["verdict"].get("simply_reducible")]
            for e in payload["entries"]
        ]}
    raise ValueError(f"no verdict fields for command {command!r}")


def mismatches(expect: dict, exit_code: int, report: dict) -> list[str]:
    """Human-readable differences from the recorded exit code and verdict."""
    got = {"exit_code": exit_code}
    try:
        got.update(verdict(report))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"]
    return [f"{k}: expected {v!r}, got {got.get(k)!r}"
            for k, v in expect.items() if got.get(k) != v]


# ---------------------------------------------------------------------------
# seeded presentation of the inputs
# ---------------------------------------------------------------------------

def _relabel(text: str, points: dict[int, int]) -> str:
    return re.sub(r"\d+", lambda m: str(points[int(m.group())]), text)


def _degree(group: dict) -> int | None:
    """Degree of the points a relabelling may permute: the group's own
    generators are relabelled too, and S_n and A_n are normal in S_n.
    Cyclic and dihedral families and products are left as they are."""
    if "generators" in group:
        return group["degree"]
    if group.get("family") in ("symmetric", "alternating"):
        return group["n"]
    return None


def present(job: dict, rng: random.Random) -> dict:
    """A conjugate copy of a job: permutation points relabelled by a random
    permutation wherever the group is closed under it."""
    job = json.loads(json.dumps(job))
    group = job.get("group")
    degree = _degree(group) if isinstance(group, dict) else None
    if degree is None:
        return job
    image = list(range(1, degree + 1))
    rng.shuffle(image)
    points = dict(zip(range(1, degree + 1), image))
    if "generators" in group:
        group["generators"] = [_relabel(g, points) for g in group["generators"]]
    if isinstance(job.get("subgroup"), dict) and "generators" in job["subgroup"]:
        job["subgroup"]["generators"] = [
            _relabel(g, points) for g in job["subgroup"]["generators"]
        ]
    for key in ("sigma", "tau"):
        if isinstance(job.get(key), dict) and "inner" in job[key]:
            job[key]["inner"] = _relabel(job[key]["inner"], points)
    return job


def plan_pass(jobs: list[dict], rng: random.Random) -> tuple[int, list[dict]]:
    """One pass: a character-table seed, the jobs in a seeded order, each
    presented with its own relabelling."""
    char_seed = rng.randrange(1, 2**31)
    order = list(range(len(jobs)))
    rng.shuffle(order)
    return char_seed, [{**jobs[i], "job": present(jobs[i]["job"], rng)} for i in order]

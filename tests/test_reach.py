"""Every public function, method and property of the package runs from a
command.  Code that only tests reach belongs in tests/oracles.py."""

import importlib
import inspect
import json
import sys
from pathlib import Path

import taumackey
from taumackey import cli

PACKAGE = Path(taumackey.__file__).parent
S3 = {"family": "symmetric", "n": 3}
Z2xZ4 = {"product": [{"family": "cyclic", "n": 2}, {"family": "cyclic", "n": 4}]}
S4_S3 = {"generators": ["(1 2)", "(1 2 3)"]}

# one job per command, per group, tau, sigma and subgroup spec form, a
# quaternion label lookup, a non-multiplicity-free product (A4), and a
# twist that fails its law
JOBS = [
    {"command": "char-table", "group": {"family": "cyclic", "n": 4}},
    {"command": "fs", "group": {"family": "dihedral", "n": 4}},
    {"command": "fs", "group": {"family": "quaternion8"}, "tau": {"inner": "i"}},
    {"command": "fs", "group": {"family": "clifford", "n": 3}, "tau": "clifford"},
    {"command": "simply-reducible", "group": {"family": "alternating", "n": 4},
     "tau": {"tau": "inverse"}},
    {"command": "simply-reducible", "group": {"generators": ["(1 2)", "(1 2 3)"], "degree": 3},
     "tau": {"generator_images": {"(1 2)": "(1 2)", "(1 2 3)": "(1 3 2)"}}},
    {"command": "power-sums", "group": Z2xZ4, "tau": "identity", "n": 2},
    {"command": "power-sums", "group": {"semidirect": {"base": {"family": "cyclic", "n": 3},
                                                       "tau": "identity"}}, "n": 3},
    {"command": "fs", "group": Z2xZ4, "tau": {"generator_images": {
        "((1 2),e)": "((1 2),(1 2 3 4))", "(e,(1 2 3 4))": "(e,(1 2 3 4))"}}},
    {"command": "gelfand", "group": {"family": "symmetric", "n": 4}, "subgroup": S4_S3},
    {"command": "gelfand", "group": S3, "tau": "inverse",
     "subgroup": {"centralizer_of_sigma": {"inner": "(1 2)"}}},
    {"command": "condition-star", "group": S3, "sigma": "identity"},
    {"command": "condition-star", "group": S3, "sigma": {"inner": "(1 2)"}},
    {"command": "clifford-battery", "n": 2},
]


def _defined():
    """(name, code) of every public function, and of every method and
    property of a public class, written in the package's source files;
    dataclass-generated methods are compiled from strings and fall out."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "taumackey" if path.stem == "__init__" else f"taumackey.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{path.stem}.{name}", obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = member.fget if isinstance(member, property) else member
                    code = getattr(fn, "__code__", None)
                    if code is not None and Path(code.co_filename).parent == PACKAGE:
                        yield f"{path.stem}.{name}.{attr}", code


def test_every_public_function_runs_from_a_command(tmp_path, capsys):
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": JOBS}))
    job = ["fs", "--group", json.dumps(S3), "--seed", "2", "--out", str(tmp_path / "r.txt")]
    sys.setprofile(profile)
    try:
        codes = [cli.main(["batch", str(manifest), "--cache-dir", str(tmp_path / "cache")]),
                 cli.main([*job, "--format", "text"])]
    finally:
        sys.setprofile(None)
    assert codes == [1, 0]  # the twist that fails its law is a spec error
    batch = json.loads(capsys.readouterr().out)
    errors = {i: r["payload"]["error"] for i, r in enumerate(batch["jobs"])
              if "error" in r["payload"]}
    assert list(errors) == [8] and errors[8].startswith("anti-automorphism law fails")
    missed = sorted(name for name, code in _defined() if code not in ran)
    assert missed == []

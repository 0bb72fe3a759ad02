"""One exception class per exit code.  The package defines SpecError (exit
1), its budget subclass BudgetExceeded, and MathCheckError (exit 2), and
every raise in its source raises one of them or re-raises."""

import ast
from pathlib import Path

import taumackey
from taumackey import errors

PACKAGE = Path(taumackey.__file__).parent
CLASSES = {"SpecError", "BudgetExceeded", "MathCheckError"}
# the raises a protocol requires (such as a mapping's missing key): none
PROTOCOL: dict = {}


def test_errors_defines_the_three_classes():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    assert {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)} == CLASSES
    assert issubclass(errors.BudgetExceeded, errors.SpecError)
    assert not issubclass(errors.MathCheckError, errors.SpecError)
    assert not issubclass(errors.SpecError, errors.MathCheckError)


class _Raises(ast.NodeVisitor):
    """(module, enclosing qualname, raised name) of every raise with an
    exception; a bare re-raise has none and is skipped."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Raise(self, node):
        if node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
            self.found.append((self.module, ".".join(self.scope), name))


def test_every_raise_is_one_of_the_three_classes():
    raises = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Raises(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        raises += visitor.found
    assert len(raises) > 100  # the walk saw the raise sites
    stray = [r for r in raises
             if r[2] not in CLASSES and PROTOCOL.get(r[:2]) != r[2]]
    assert stray == []

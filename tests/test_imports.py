"""Every module imports on its own in a fresh interpreter, the layers import downward,
and only errors.Budget words a budget refusal.

A load-time import cycle between the layers shows up as an ImportError for
whichever module of the cycle is imported first.  A cycle deferred into a
function body does not, so the layering test reads every import statement.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "deltacalc").glob("*.py"))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    name = "deltacalc" if module == "__init__" else f"deltacalc.{module}"
    result = subprocess.run([sys.executable, "-c", f"import {name}"],
                            capture_output=True, text=True, env=ENV, timeout=60)
    assert result.returncode == 0, result.stderr


def test_cli_start_up_skips_heavy_stdlib_modules():
    # every command pays for what deltacalc.cli imports; dataclasses pulls in
    # inspect, ast, dis and tokenize, typing costs about 4 ms on its own, and
    # random, which only the axiom suites use, another 1-2 ms.
    # -S keeps site's own imports out of it.
    code = ("import deltacalc.cli, sys; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'random'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, env=ENV, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Each module may import only modules listed before it.
LAYERS = ["__init__", "errors", "words", "artin", "gamma", "e1", "exprs", "cli", "__main__"]


def _package_imports(tree: ast.AST) -> set[str]:
    """The deltacalc modules an AST imports, at any depth, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # "from . import x" and "from .x import y" are relative to deltacalc
            source = ".".join(filter(None, ["deltacalc" if node.level else "", node.module]))
            if source == "deltacalc":
                found |= {a.name for a in node.names}
            elif source.startswith("deltacalc."):
                found.add(source.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("deltacalc.")}
    return found


def test_layers_import_only_the_layers_below():
    assert sorted(LAYERS) == MODULES
    for module in LAYERS:
        tree = ast.parse((SRC / "deltacalc" / f"{module}.py").read_text())
        below = LAYERS[:LAYERS.index(module)]
        above = sorted(_package_imports(tree) - set(below))
        assert not above, f"{module} imports {above}, not below it in {LAYERS}"


def _error_texts(tree: ast.AST):
    """The string constants of every raise, and of every call to a name ending in Error."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", "")
            if not func.endswith("Error"):
                continue
        elif not isinstance(node, ast.Raise):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield node.lineno, sub.value


def test_only_errors_words_a_budget_refusal():
    # a refusal over a size budget is Budget.check's; any other error text that
    # mentions a budget is a second, hand-made wording of it
    found = set()
    for module in MODULES:
        if module != "errors":
            tree = ast.parse((SRC / "deltacalc" / f"{module}.py").read_text())
            found |= {(module, line) for line, text in _error_texts(tree)
                      if "budget" in text.lower()}
    assert not found, f"budget refusals worded outside errors.Budget: {sorted(found)}"

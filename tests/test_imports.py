"""Every module imports on its own in a fresh interpreter.

A load-time import cycle between the layers shows up as an ImportError for
whichever module of the cycle is imported first.
"""

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
    # inspect, ast, dis and tokenize.  -S keeps site's own imports out of it.
    code = ("import deltacalc.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, env=ENV, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

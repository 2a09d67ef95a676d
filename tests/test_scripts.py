import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_scripts_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cases = [
        (["annihilation_table.py", "--max-t", "1", "--span", "3", "--max-s", "4"],
         "t=0  2:1  3:1  4:2"),
        (["artin_nilpotency_sweep.py", "--witnesses", "2", "--seed", "1"],
         "ring GF(2)[t]/(t^3): m_index=3, bound=2"),
        (["basis_growth.py", "--n", "3", "--max-degree", "10", "--by-weight", "--e1"],
         "generators on x3 through degree 10:"),
    ]
    for (script, *args), first_line in cases:
        result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, (script, result.stderr)
        assert result.stdout.splitlines()[0] == first_line, (script, result.stdout)

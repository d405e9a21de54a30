"""Start-up cost: importing the package and its CLI loads none of the
standard modules that build classes or read source at run time."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The same one-liner is a CI step, run under every Python of the matrix.
# `-S` keeps site-packages from importing any of them first.
CHECK = (
    "import sys, damc, damc.cli; "
    "heavy = sorted({'dataclasses', 'inspect', 'dis', 'ast'} & sys.modules.keys()); "
    "print(heavy); sys.exit(1 if heavy else 0)"
)


def test_import_loads_no_dataclasses_inspect_dis_or_ast():
    done = subprocess.run(
        [sys.executable, "-S", "-c", CHECK],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "[]"

"""Start-up cost and module boundary: importing the package and its CLI
loads none of the standard modules that build classes or read source at
run time, and the modules `verify` runs bind nothing of `certificates`."""
import os
import subprocess
import sys
import types
from pathlib import Path

import damc

SRC = Path(__file__).resolve().parent.parent / "src"

# The same one-liners are CI steps, run under every Python of the matrix.
# `-S` keeps site-packages from importing any of them first.
CHECK = (
    "import sys, damc, damc.cli; "
    "heavy = sorted({'dataclasses', 'inspect', 'dis', 'ast'} & sys.modules.keys()); "
    "print(heavy); sys.exit(1 if heavy else 0)"
)
# No verdict reads a certificate.  `import damc.product` runs
# `damc/__init__`, which re-exports `certify`, so `damc.certificates` is
# loaded either way: the check reads what `summary` and `product` bind.
BOUNDARY = (
    "import sys, damc.summary as s, damc.product as p; "
    "c = sys.modules['damc.certificates']; "
    "bad = sorted(f'{m.__name__}.{k}' for m in (s, p) for k, v in vars(m).items() "
    "if v is c or getattr(v, '__module__', None) == c.__name__); "
    "print(bad); sys.exit(1 if bad else 0)"
)


def _run(check: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-S", "-c", check],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )


def test_import_loads_no_dataclasses_inspect_dis_or_ast():
    done = _run(CHECK)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "[]"


def test_summary_and_product_bind_nothing_of_certificates():
    done = _run(BOUNDARY)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "[]"


def test_package_exports_the_certificates_by_their_names():
    # `damc.certify` is the function, not a module of that name
    assert damc.certify.__module__ == "damc.certificates" and callable(damc.certify)
    names = {"certify", "check_mc", "check_feedback_free", "check_bounded_lookback"}
    assert names | {"check_gc", "detect", "NoSummaryFound"} <= set(damc.__all__)


def test_package_exports_its_api_and_no_submodule():
    # `from damc import *` binds the API names, none of the submodules the
    # package binds while importing
    scope: dict = {}
    exec("from damc import *", scope)
    exported = set(scope) - {"__builtins__"}
    assert exported == set(damc.__all__) and len(damc.__all__) == len(exported)
    assert not [n for n in exported if isinstance(scope[n], types.ModuleType)]
    assert {"verify", "detect", "certify", "update", "to_dnf"} <= exported

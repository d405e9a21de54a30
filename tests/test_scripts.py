"""Smoke tests of the scripts: they run and print the paper's verdicts."""
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_auction_suite_prints_the_paper_verdicts():
    out = run_script("run_auction_suite.py")
    assert "summary strategy: var-compose(" in out
    verdicts = dict(re.findall(r"^(psi1\d)\s+witness=(\S+)", out, re.M))
    assert verdicts == {
        "psi11": "no",
        "psi12": "yes",
        "psi13": "no",
        "psi14": "yes",
        "psi15": "no",
    }


def test_run_small_systems_prints_graphs_matrix_and_witness():
    out = run_script("run_small_systems.py")
    assert "b1 over the rationals: strategy MC, 4 nodes" in out
    assert "b3 over the integers: strategy GC(K=4), 6 nodes" in out
    for row in (
        "b1: mc=True gc=True(K=2) feedback-free=False 3-lookback=False",
        "b2: mc=False gc=False feedback-free=True 3-lookback=True",
        "b3: mc=False gc=True(K=4) feedback-free=False 3-lookback=False",
        "b4: mc=False gc=False feedback-free=False 3-lookback=True",
    ):
        assert row in out
    assert re.search(r"verdict witness in [\d.]+s; product has 9 nodes / 12 edges", out)
    assert "word: {} {} {} {y > 5}" in out

"""The output of `damc summary`, text and `--json`, pinned byte for byte in
`golden/summary_labels.json`.

The cases are b1-b4 and the auction, each with no property under its own
domain and under the other, the four-self-loop system of `test_cli.py`
with no property, and each model under every property a verdict golden
reads on it: the auction's five, b1's ten disjunctions, the integer
golden's queries under `--domain int`, and the self-loops' one.

    PYTHONPATH=src python tests/test_summary_golden.py --write

records the outputs of the checked-out code.
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from damc.cli import main

from test_cli import FOUR_SELF_LOOPS_MODEL

MODELS = Path(__file__).resolve().parent.parent / "models"
GOLDEN = Path(__file__).parent / "golden"
LABELS = GOLDEN / "summary_labels.json"
LOOPS_PROPERTY = "(x < y U 1 <= 1)"


def cases() -> list[tuple[str, str, str, list[str]]]:
    """(group, id, model, the options after the model) of every case; the
    model `loops` is the four-self-loop system."""
    out = []
    for m in ("b1", "b2", "b3", "b4", "auction"):
        out.append(("none", m, m, []))
        for dom in ("rat", "int"):
            out.append(("none", f"{m}:{dom}", m, ["--domain", dom]))
    out.append(("none", "loops", "loops", []))
    for kind, model in (("auction", "auction"), ("disjunction", "b1"), ("integer", None)):
        golden = json.loads((GOLDEN / f"{kind}_verdicts.json").read_text())
        for name, case in sorted(golden.items()):
            m = model or case["model"].removesuffix(".ddsa")
            opts = ["--domain", "int"] if kind == "integer" else []
            out.append((kind, f"{kind}:{name}", m, [*opts, "--prop", case["property"]]))
    out.append(("loops", "loops:prop", "loops", ["--prop", LOOPS_PROPERTY]))
    return out


def summary_output(path: Path, opts: list[str]) -> dict:
    """The exit code and the text and `--json` outputs of `damc summary`."""
    doc: dict = {}
    for key, extra in (("text", []), ("json", ["--json"])):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["summary", str(path), *opts, *extra])
        assert doc.get("code", code) == code
        doc.update(code=code, **{key: buf.getvalue()})
    return doc


def outputs(selected) -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        loops = Path(tmp) / "loops.ddsa"
        loops.write_text(FOUR_SELF_LOOPS_MODEL)
        paths = {"loops": loops}
        return {
            cid: summary_output(paths.get(m, MODELS / f"{m}.ddsa"), opts)
            for _, cid, m, opts in selected
        }


PINNED = json.loads(LABELS.read_text())


def test_summary_labels_golden_cover_the_cases():
    # 16 without a property, 71 with one
    assert sorted(PINNED) == sorted(cid for _, cid, *_ in cases())
    assert len(PINNED) == 87


@pytest.mark.parametrize("kind", ["none", "auction", "disjunction", "integer", "loops"])
def test_summary_labels_golden(kind):
    selected = [c for c in cases() if c[0] == kind]
    assert selected
    got = outputs(selected)
    changed = sorted(cid for cid in got if got[cid] != PINNED.get(cid))
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    LABELS.write_text(json.dumps(outputs(cases()), indent=1, sort_keys=True) + "\n")

"""Two digests of every verdict on the golden queries and on the
benchmark's seeded queries, pinned in `golden/product_digests.json`.

The *structure* digest covers what a verdict shows but the node text: its
kind, reason, strategy and sizes, every product node's control state and
NFA state, every edge, the finals, the witness run, and the word as sorted
strings, as `damc verify --json` prints it (a symbol's frozenset order is
not stable between processes).  The *text* digest covers each
node's formula as printed.  A change that only reprints nodes moves text
digests alone.  The seeded queries are the auction, disjunction and sweep
workloads at seeds 1-5, at `--max-nodes 300`.

    PYTHONPATH=src python tests/test_product_digests.py --write

records both digests of the checked-out code, and `--write-text` the text
digests alone, keeping the pinned structure digests.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from damc import parsing
from damc.cli import _verdict_json
from damc.formula import INT
from damc.product import verify

from conftest import load_model, with_domain

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "product_digests.json"
SEEDS = range(1, 6)
SEEDED_MAX_NODES = 300


def _golden_queries() -> list[tuple[str, str, object, str, int]]:
    """(id, model file, domain or None, property, node budget) of every
    golden query."""
    out = []
    for kind in ("auction", "disjunction", "integer"):
        cases = json.loads((GOLDEN / f"{kind}_verdicts.json").read_text())
        for name, case in sorted(cases.items()):
            model = case.get("model", {"auction": "auction.ddsa", "disjunction": "b1.ddsa"}.get(kind))
            out.append((f"golden:{kind}:{name}", model, INT if kind == "integer" else None,
                        case["property"], 10_000))
    return out


def _seeded_queries() -> list[tuple[str, str, object, str, int]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS, load_models
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    out = []
    for name in ("auction", "disjunction", "sweep"):
        w = WORKLOADS[name]
        texts = load_models(ROOT, w.models)
        for seed in SEEDS:
            for q in w.generate(seed, texts):
                out.append((f"{name}:{seed}:{q.qid}", q.model, None, q.text, SEEDED_MAX_NODES))
    return out


def queries() -> list[tuple[str, str, object, str, int]]:
    return _golden_queries() + _seeded_queries()


def digest(v) -> dict[str, str]:
    """The structure and text digests of a verdict (the module docstring
    says what each covers)."""
    doc = _verdict_json(v)
    texts = []
    p = v.product
    if p is not None:
        doc["nodes"] = [[n.state, n.q] for n in p.nodes]
        doc["edges"] = [[e.src, e.action, sorted(str(s) for s in e.symbol), e.dst] for e in p.edges]
        doc["finals"] = sorted(p.finals)
        texts = [str(n.formula) for n in p.nodes]
    return {"structure": _hash(doc), "text": _hash(texts)}


def _hash(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def digests(cases) -> dict[str, dict[str, str]]:
    models: dict = {}
    out = {}
    for qid, model, dom, text, max_nodes in cases:
        if (model, dom) not in models:
            d = load_model(model)
            models[model, dom] = d if dom is None else with_domain(d, dom)
        d = models[model, dom]
        out[qid] = digest(verify(d, parsing.parse_property(text, d), max_nodes=max_nodes))
    return out


PINNED = json.loads(DIGESTS.read_text())


def test_product_digests_golden_cover_the_goldens_and_seeded_queries():
    # 70 golden queries and 360 seeded ones
    assert sorted(PINNED) == sorted(qid for qid, *_ in queries())
    assert len(PINNED) == 430


@pytest.mark.parametrize("kind", ["golden", "auction", "disjunction", "sweep"])
def test_product_digests_golden(kind):
    cases = [q for q in queries() if q[0].split(":")[0] == kind]
    assert cases
    got = digests(cases)
    for part in ("structure", "text"):
        changed = sorted(qid for qid in got if got[qid][part] != PINNED.get(qid, {}).get(part))
        assert not changed, (part, changed)


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--write-text"]):
        sys.exit(__doc__)
    got = digests(queries())
    if sys.argv[1] == "--write-text":
        got = {qid: {**PINNED[qid], "text": got[qid]["text"]} for qid in got}
    DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")

"""Command-line entry point.

Exit codes of `verify`: 0 a witness exists, 1 no witness, 2 inconclusive,
3 usage, parse or internal error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional

from . import dot, ltlf as lt, oracle, parsing, product, summary
from .ddsa import Ddsa, Run
from .formula import INT, RAT, fmt_rat
from .solve import BudgetExceeded, UnsupportedInteger

EXIT_WITNESS = 0
EXIT_NO_WITNESS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _color(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\033[{code}m{text}\033[0m"


def _load_model(ns: argparse.Namespace) -> Ddsa:
    text = Path(ns.model).read_text()
    d = parsing.parse_model(text)
    if ns.domain:
        # the model must be valid in the domain it is solved in
        d = parsing.check_model(replace(d, domain=INT if ns.domain == "int" else RAT))
    return d


def _load_property(ns: argparse.Namespace, d: Ddsa) -> lt.Ltlf:
    assert ns.prop is not None
    text = ns.prop
    if os.path.exists(text):
        text = Path(text).read_text().strip()
    return parsing.parse_property(text, d)


def _alpha_json(alpha) -> dict:
    return {v.name: fmt_rat(x) for v, x in sorted(alpha.items())}


def _run_json(run: Run) -> dict:
    return {
        "run": [{"state": c.state, "assign": _alpha_json(dict(c.alpha))} for c in run.configs],
        "actions": list(run.actions),
    }


def _verdict_json(v: product.Verdict) -> dict:
    out: dict = {"verdict": v.kind, "strategy": v.stats.strategy or None}
    if v.reason:
        out["reason"] = v.reason
    sizes = asdict(v.stats)
    del sizes["strategy"]
    out["sizes"] = sizes
    if v.run is not None:
        out["word"] = [sorted(str(s) for s in sym) for sym in (v.word or [])]
        out.update(_run_json(v.run))
    return out


def _text_verdict(v: product.Verdict) -> str:
    lines = []
    if v.stats.strategy:
        lines.append(f"strategy: {v.stats.strategy}")
        lines.append(
            "sizes: nfa {}/{} product {}/{} finals {}".format(
                v.stats.nfa_states,
                v.stats.nfa_edges,
                v.stats.product_nodes,
                v.stats.product_edges,
                v.stats.product_finals,
            )
        )
    if v.kind == "witness":
        lines.append(_color("verdict: witness found", "32"))
        assert v.run is not None
        word = v.word or []
        lines.append("word: " + " ".join(lt.fmt_symbol(s) for s in word))
        names = [x.name for x in sorted({vv for c in v.run.configs for vv, _ in c.alpha})]
        header = ["step", "state"] + names + ["action"]
        rows = []
        for i, c in enumerate(v.run.configs):
            alpha = dict(c.alpha)
            act = v.run.actions[i] if i < len(v.run.actions) else ""
            rows.append(
                [str(i), c.state]
                + [fmt_rat(alpha[vv]) for vv in sorted(alpha)]
                + [act]
            )
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        for r in [header] + rows:
            lines.append("  " + "  ".join(x.ljust(w) for x, w in zip(r, widths)))
    elif v.kind == "no-witness":
        lines.append(_color("verdict: no witness exists", "31"))
    else:
        lines.append(_color(f"verdict: inconclusive ({v.reason})", "33"))
    return "\n".join(lines)


# Each command returns its exit code and the text it prints.


def cmd_verify(ns: argparse.Namespace) -> tuple[int, str]:
    d = _load_model(ns)
    psi = _load_property(ns, d)
    verdict = product.verify(d, psi, ns.max_nodes)
    if ns.dot_nfa and verdict.nfa is not None:
        Path(ns.dot_nfa).write_text(dot.nfa_dot(verdict.nfa))
    if ns.dot_product and verdict.product is not None:
        Path(ns.dot_product).write_text(dot.product_dot(verdict.product))
    if ns.dot_cg and verdict.strategy is not None:
        try:
            g = product.constraint_graph(d, verdict.strategy, ns.max_nodes)
        except (BudgetExceeded, UnsupportedInteger) as e:
            verdict = product.Verdict("inconclusive", verdict.stats, reason=f"--dot-cg: {e}")
        else:
            Path(ns.dot_cg).write_text(dot.constraint_graph_dot(g))
    code = {
        "witness": EXIT_WITNESS,
        "no-witness": EXIT_NO_WITNESS,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[verdict.kind]
    if ns.json_output:
        return code, json.dumps(_verdict_json(verdict), indent=2)
    return code, _text_verdict(verdict)


def cmd_summary(ns: argparse.Namespace) -> tuple[int, str]:
    d = _load_model(ns)
    constraints = []
    if ns.prop:
        psi = _load_property(ns, d)
        constraints = lt.constraints_of(lt.preprocess(psi))
    try:
        label = summary.certify(d, constraints)
    except summary.NoSummaryFound as e:
        if ns.json_output:
            return EXIT_INCONCLUSIVE, json.dumps({"summary": None, "reason": str(e)})
        return EXIT_INCONCLUSIVE, f"no finite summary detected: {e}"
    if ns.json_output:
        return EXIT_WITNESS, json.dumps({"summary": label})
    return EXIT_WITNESS, f"summary: {label}"


def cmd_oracle(ns: argparse.Namespace) -> tuple[int, str]:
    d = _load_model(ns)
    psi = _load_property(ns, d)
    pre = lt.preprocess(psi)
    grid = oracle.default_grid(d, lt.constraints_of(pre), 0, ns.grid_max)
    run = oracle.brute_force_witness(d, psi, ns.max_len, grid)
    if run is None:
        msg = f"no witness of length <= {ns.max_len} on the grid"
        return EXIT_NO_WITNESS, (
            json.dumps({"verdict": "none", "detail": msg}) if ns.json_output else msg
        )
    if ns.json_output:
        return EXIT_WITNESS, json.dumps({"verdict": "witness", **_run_json(run)})
    lines = ["witness run:"]
    for i, c in enumerate(run.configs):
        alpha = ", ".join(f"{v.name}={fmt_rat(x)}" for v, x in c.alpha)
        arrow = f" --{run.actions[i]}-->" if i < len(run.actions) else ""
        lines.append(f"  ({c.state}: {alpha}){arrow}")
    return EXIT_WITNESS, "\n".join(lines)


def _int_at_least(text: str, low: int) -> int:
    n = int(text)
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    return n


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def natural_int(text: str) -> int:
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="damc",
        description="Witness checker for data-aware dynamic systems with "
        "linear arithmetic and finite-trace temporal properties.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_prop):
        p.add_argument("model", help="model file")
        p.add_argument(
            "--prop", required=needs_prop, help="property string or file path"
        )
        p.add_argument("--domain", choices=["int", "rat"], help="override the model domain")
        p.add_argument("--json", action="store_true", dest="json_output")

    pv = sub.add_parser("verify", help="decide witness existence")
    common(pv, needs_prop=True)
    pv.add_argument("--max-nodes", type=positive_int, default=10_000)
    pv.add_argument("--dot-cg", help="write the constraint graph as DOT")
    pv.add_argument("--dot-nfa", help="write the property automaton as DOT")
    pv.add_argument("--dot-product", help="write the product automaton as DOT")

    ps = sub.add_parser("summary", help="certify a finite summary (the label only)")
    common(ps, needs_prop=False)

    po = sub.add_parser("oracle", help="brute-force search on a value grid")
    common(po, needs_prop=True)
    po.add_argument("--max-len", type=natural_int, default=5)
    po.add_argument("--grid-max", type=natural_int, default=8)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    command = {"verify": cmd_verify, "summary": cmd_summary, "oracle": cmd_oracle}
    try:
        code, text = command[ns.command](ns)
    except (parsing.ParseError, OSError, ValueError) as e:
        # OSError: a missing or unreadable model, property or DOT path
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        # a bug, not a verdict: exit 1 would read as "no witness"
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): the verdict's exit code stands, and
        # stdout points at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

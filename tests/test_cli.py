import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damc import certificates, parsing, product, solve
from damc.cli import main
from damc.solve import BudgetExceeded, UnsupportedInteger

from conftest import reference_accepting_path

MODELS = Path(__file__).resolve().parent.parent / "models"
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src/damc/witness_schema.json").read_text()
)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_witness_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", "F (y > 5)")
    assert code == 0
    assert "witness found" in out
    # verify reports the structure it ran on; `damc summary` certifies
    assert "strategy: exact-fixpoint" in out


def test_verify_no_witness_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", "F (y > 5 & y < 0)"
    )
    assert code == 1
    assert "no witness" in out


def test_verify_inconclusive_exit_code(capsys, tmp_path):
    # integer domain with a general-linear guard: no criterion applies
    src = (MODELS / "b4.ddsa").read_text().replace("domain rat", "domain int")
    p = tmp_path / "b4int.ddsa"
    p.write_text(src)
    code, out, _ = run_cli(capsys, "verify", str(p), "--prop", "F (s > 5)")
    assert code == 2
    assert "inconclusive" in out


def test_verify_usage_error(capsys, tmp_path):
    p = tmp_path / "broken.ddsa"
    p.write_text("domain rat\nvars x\n")
    code, _, err = run_cli(capsys, "verify", str(p), "--prop", "F (x > 0)")
    assert code == 3
    assert "error:" in err


def test_verify_parse_error_in_property(capsys):
    code, _, err = run_cli(capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", "F (y >")
    assert code == 3


def test_a_split_action_is_named_by_its_id(capsys, tmp_path):
    # a `||` guard splits `a` into `a#1` and `a#2`: a property names those,
    # and the bare `a` is a parse error that names them
    p = tmp_path / "split.ddsa"
    p.write_text(
        "domain rat\nvars x\ninit x=0\nstates s t\ninitial s\nfinal t\n"
        "trans s a t [x^w > 1 || x^w < 0]\n"
    )
    code, out, _ = run_cli(capsys, "verify", str(p), "--prop", "<a#1> true", "--json")
    v = json.loads(out)
    assert (code, v["verdict"], v["actions"]) == (0, "witness", ["a#1"])
    code, out, err = run_cli(capsys, "verify", str(p), "--prop", "F a")
    assert (code, out) == (3, "")
    assert "a#1" in err


@pytest.mark.parametrize(
    "edit, prop, where",
    [
        (None, "F (x > 1/0)", "column 8"),
        (("init x=0", "init x=1/0"), "F (x > 1)", "line 4"),
        (("[x^w > y^r]", "[x^w > 1/0]"), "F (x > 1)", "line 8, column 7"),
        # columns count from the start of the guard in every disjunct
        (("[x^w > y^r]", "[x^w > 0 || y^w > 1/0]"), "F (x > 1)", "line 8, column 18"),
    ],
    ids=["property", "init", "guard", "guard-second-disjunct"],
)
def test_zero_denominator_is_a_parse_error(capsys, tmp_path, edit, prop, where):
    model = MODELS / "b1.ddsa"
    if edit is not None:
        text = model.read_text()
        assert edit[0] in text
        model = tmp_path / "m.ddsa"
        model.write_text(text.replace(*edit))
    code, out, err = run_cli(capsys, "verify", str(model), "--prop", prop)
    assert code == 3
    assert "error: zero denominator in '1/0'" in err and where in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "edit, prop, where",
    [
        (None, "F (x > $)", "column 8"),
        (("[x^w > y^r]", "[x^w > 0 || y^w > $]"), "F (x > 1)", "line 8, column 18"),
    ],
    ids=["property", "guard"],
)
def test_bad_character_after_a_blank_is_named_where_it_is(capsys, tmp_path, edit, prop, where):
    # the blank before it is not the error
    model = MODELS / "b1.ddsa"
    if edit is not None:
        model = tmp_path / "m.ddsa"
        model.write_text((MODELS / "b1.ddsa").read_text().replace(*edit))
    code, out, err = run_cli(capsys, "verify", str(model), "--prop", prop)
    assert code == 3
    assert f"error: unexpected character '$' at {where}" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "edit, prop",
    [
        (None, "F (x = 1.5/2)"),
        (("init x=0", "init x=1.5/2"), "x = 1.5/2 & F (x > 1.5/2)"),
    ],
    ids=["property", "init"],
)
def test_decimal_over_a_denominator_reads_exactly(capsys, tmp_path, edit, prop):
    # one number token, 3/4, read as the same query written with 3/4
    def verdict(edit, prop):
        model = MODELS / "b1.ddsa"
        if edit is not None:
            model = tmp_path / "m.ddsa"
            model.write_text((MODELS / "b1.ddsa").read_text().replace(*edit))
        return run_cli(capsys, "verify", str(model), "--prop", prop, "--json")

    code, out, err = verdict(edit, prop)
    assert (code, err) == (0, "")
    spelt = None if edit is None else (edit[0], edit[1].replace("1.5/2", "3/4"))
    assert (code, out, err) == verdict(spelt, prop.replace("1.5/2", "3/4"))
    assert '"x": "3/4"' in out


@pytest.mark.parametrize("value", ["abc", "1/2/3", "1/"])
def test_init_value_that_is_not_a_number_is_a_parse_error(capsys, tmp_path, value):
    model = tmp_path / "m.ddsa"
    model.write_text((MODELS / "b1.ddsa").read_text().replace("init x=0", f"init x={value}"))
    code, out, err = run_cli(capsys, "verify", str(model), "--prop", "F (x > 1)")
    assert code == 3
    assert err.rstrip() == f"error: not a number: {value!r} at line 4"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["verify", "summary", "oracle"])
def test_init_of_an_undeclared_variable_is_an_invalid_model(capsys, tmp_path, command):
    model = tmp_path / "m.ddsa"
    text = (MODELS / "b1.ddsa").read_text()
    model.write_text(text.replace("init x=0 y=0", "init x=0 y=0 z=2"))
    code, out, err = run_cli(capsys, command, str(model), "--prop", "F (x > 1)")
    assert (code, out) == (3, "")
    assert err.rstrip() == "error: invalid model: initial assignment names undeclared variable 'z'"


@pytest.mark.parametrize(
    "prop, where", [("F (y >", "column 7"), ("F (y > 5))", "column 10"), ("", "column 1")]
)
def test_property_parse_error_names_its_column(capsys, prop, where):
    # the end of input is the column just past the last token
    code, _, err = run_cli(capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", prop)
    assert code == 3
    assert err.rstrip().endswith(f" at {where}")


@pytest.mark.parametrize(
    "prop, message",
    [
        ("F (x >", "expected a term, found end of input at column 7"),
        ("F (x > 1", "expected ')', found end of input at column 9"),
        ("F (x + 1", "expected a comparison, found end of input at column 9"),
    ],
)
def test_parse_error_at_the_end_of_input_names_the_end_of_input(capsys, prop, message):
    code, out, err = run_cli(capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", prop)
    assert (code, out) == (3, "")
    assert err.rstrip() == f"error: {message}"


@pytest.mark.parametrize("args", [(str(MODELS), "F (x > 1)"), (str(MODELS / "b1.ddsa"), str(MODELS))])
def test_directory_path_is_a_usage_error(capsys, args):
    code, out, err = run_cli(capsys, "verify", args[0], "--prop", args[1])
    assert code == 3
    assert err.startswith("error: ") and "Is a directory" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--prop", "F (y > 5)", "--max-nodes", "0"),
        # oracle takes no budget
        ("oracle", "--prop", "F (y > 5)", "--unroll", "2"),
        # a negative length is no search, not "no witness" (exit 1)
        ("oracle", "--prop", "F (x > 2)", "--max-len", "-1"),
        ("oracle", "--prop", "F (x > 2)", "--grid-max", "-1"),
    ],
    ids=["verify-max-nodes-0", "oracle-unroll", "oracle-max-len--1", "oracle-grid-max--1"],
)
def test_bad_budget_flag_is_a_usage_error(capsys, args):
    code, _, err = run_cli(capsys, args[0], str(MODELS / "b1.ddsa"), *args[1:])
    assert code == 3
    assert args[-2] in err  # the message names the flag


def test_oracle_length_zero_is_a_search(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", str(MODELS / "b1.ddsa"), "--prop", "F (x > 2)", "--max-len", "0"
    )
    assert (code, out.strip()) == (1, "no witness of length <= 0 on the grid")


def test_json_output_validates_against_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", "F (y > 5)", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["verdict"] == "witness"
    assert doc["run"][0]["assign"] == {"x": "0", "y": "0"}
    assert len(doc["word"]) == len(doc["run"])


def test_json_no_witness_validates(capsys):
    code, out, _ = run_cli(
        capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", "F (y > 5 & y < 0)", "--json"
    )
    assert code == 1
    jsonschema.validate(json.loads(out), SCHEMA)


def test_dot_outputs(capsys, tmp_path):
    cg = tmp_path / "cg.dot"
    nfa = tmp_path / "nfa.dot"
    prod = tmp_path / "prod.dot"
    code, _, _ = run_cli(
        capsys,
        "verify",
        str(MODELS / "b1.ddsa"),
        "--prop",
        "F (y > 5)",
        "--dot-cg",
        str(cg),
        "--dot-nfa",
        str(nfa),
        "--dot-product",
        str(prod),
    )
    assert code == 0
    for f, name in ((cg, "constraint_graph"), (nfa, "nfa"), (prod, "product")):
        text = f.read_text()
        assert text.startswith(f"digraph {name} {{")
        assert text.rstrip().endswith("}")
        # crude DOT well-formedness: every edge line is quoted-label arrow syntax
        for line in text.splitlines():
            if "->" in line:
                assert re.match(r'\s*\w+ -> \w+ \[label=".*"\];', line)
    assert prod.read_text().count("->") == 12  # edges of the 9-node product


def test_summary_subcommand(capsys):
    code, out, _ = run_cli(capsys, "summary", str(MODELS / "auction.ddsa"))
    assert code == 0
    assert "var-compose" in out
    code2, out2, _ = run_cli(
        capsys, "summary", str(MODELS / "b3.ddsa"), "--json"
    )
    assert code2 == 0
    assert json.loads(out2)["summary"] == "GC(K=4)"


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        str(MODELS / "b1.ddsa"),
        "--prop",
        "F (y > 5)",
        "--max-len",
        "4",
        "--grid-max",
        "8",
    )
    assert code == 0
    assert "witness run:" in out
    code2, out2, _ = run_cli(
        capsys,
        "oracle",
        str(MODELS / "b1.ddsa"),
        "--prop",
        "F (y > 5 & y < 0)",
        "--max-len",
        "3",
    )
    assert code2 == 1


def test_oracle_on_an_integer_model_writes_only_integers(capsys, tmp_path):
    # the property's constants 5/2 and -5/2 stay off an integer model's
    # grid, so the oracle agrees with verify that no run reaches x = 5/2
    p = tmp_path / "inc.ddsa"
    p.write_text(
        "domain int\nvars x\ninit x=0\nstates 1\ninitial 1\nfinal 1\n"
        "trans 1 a 1 [x^w > x^r]\n"
    )
    args = ("--prop", "F (2*x = 5)")
    code, out, _ = run_cli(capsys, "oracle", str(p), *args, "--max-len", "2", "--grid-max", "3")
    assert code == 1 and "no witness" in out
    code, out, _ = run_cli(capsys, "verify", str(p), *args)
    assert code == 1 and "no witness" in out


def test_domain_override(capsys):
    code, out, _ = run_cli(
        capsys, "summary", str(MODELS / "b1.ddsa"), "--domain", "int", "--json"
    )
    assert code == 0
    assert json.loads(out)["summary"].startswith("GC(")


@pytest.mark.parametrize("command", ["verify", "summary", "oracle"])
def test_domain_override_validates_the_model(capsys, tmp_path, command):
    # as invalid under --domain int as with `domain int` in the file
    model = tmp_path / "m.ddsa"
    model.write_text(
        "domain rat\nvars x\ninit x=1/2\nstates s t\ninitial s\nfinal t\ntrans s a t [x^w = x^r]\n"
    )
    code, out, err = run_cli(capsys, command, str(model), "--prop", "F (x > 0)", "--domain", "int")
    assert (code, out) == (3, "")
    assert err.rstrip() == "error: invalid model: integer model initializes 'x' to non-integer 1/2"


def test_property_from_file(capsys, tmp_path):
    p = tmp_path / "prop.ltlf"
    p.write_text("F (y > 5)\n")
    code, _, _ = run_cli(capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", str(p))
    assert code == 0


SEQ_OVER_VAR_MODEL = """\
domain rat
vars x y z
init x=0 y=0 z=0
states 1 2 3
initial 1
final 3
trans 1 a 1 [x^w > x^r]
trans 1 b 2 [y^w + z^w = 1]
trans 2 c 3 [y^w > x^r]
"""


SEQ_OVER_VAR_LABEL = "seq-compose(var-compose({x}: MC; {y,z}: feedback-free), MC; cut='2')"


def test_seq_split_with_var_split_part_is_certified(capsys, tmp_path):
    # the prefix part splits by variables; the sequential split only labels
    # the one exact leaf on the whole system, so no pair state crosses the
    # cut.  The guard of `c` links x and y, so verify runs one leaf
    p = tmp_path / "seqvar.ddsa"
    p.write_text(SEQ_OVER_VAR_MODEL)
    code, out, _ = run_cli(capsys, "summary", str(p), "--prop", "F (y > 2)")
    assert code == 0
    assert out == f"summary: {SEQ_OVER_VAR_LABEL}\n"
    code, out, err = run_cli(capsys, "verify", str(p), "--prop", "F (y > 2)", "--json")
    assert code == 0
    assert "Traceback" not in out + err
    doc = json.loads(out)
    assert doc["strategy"] == "exact-fixpoint" and doc["verdict"] == "witness"
    assert doc["actions"] == ["b", "c"]
    code, out, _ = run_cli(
        capsys, "oracle", str(p), "--prop", "F (y > 2)", "--max-len", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["actions"] == ["b", "c"]


DIVERGING_COUNTER_MODEL = """\
domain rat
vars x
init x=0
states 1
initial 1
final 1
trans 1 inc 1 [x^w - x^r >= 1]
"""


# four self-loops on one control: feedback freedom enumerates every symbolic
# run that takes each loop at most twice, 7,366 of them
FOUR_SELF_LOOPS_MODEL = """\
domain rat
vars x y u v
init x=0 y=2 u=2 v=2
states s0
initial s0
final s0
trans s0 a0 s0 []
trans s0 a1 s0 [x^w >= 0]
trans s0 a2 s0 []
trans s0 a3 s0 [v^w + 1 >= u^r && 0 <= x^r - x^w]
"""


def test_verify_enumerates_no_symbolic_run_on_four_self_loops(capsys, tmp_path, monkeypatch):
    # verify runs the variable split without certifying it; only
    # `damc summary` pays for feedback freedom
    p = tmp_path / "loops.ddsa"
    p.write_text(FOUR_SELF_LOOPS_MODEL)
    prop = ("--prop", "(x < y U 1 <= 1)")
    enumerate_runs, calls = certificates.enumerate_symbolic_runs, []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_runs(*args, **kwargs)

    monkeypatch.setattr(certificates, "enumerate_symbolic_runs", counted)
    code, out, _ = run_cli(capsys, "verify", str(p), *prop, "--json")
    assert calls == []
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "witness"
    assert doc["strategy"] == "var-compose({x,y}: exact-fixpoint; {u,v}: exact-fixpoint)"
    sizes = [doc["sizes"][f"product_{k}"] for k in ("nodes", "edges", "finals")]
    assert sizes == [21, 95, 15]
    code, out, _ = run_cli(capsys, "summary", str(p), *prop)
    assert code == 0 and calls
    assert out == "summary: var-compose({x,y}: MC; {u,v}: feedback-free)\n"


def test_uncovered_rational_system_ends_at_the_node_budget(capsys, tmp_path):
    # no criterion bounds this fixpoint, so the exact leaf runs until the
    # node budget stops it: inconclusive, not a verdict
    p = tmp_path / "counter.ddsa"
    p.write_text(DIVERGING_COUNTER_MODEL)
    assert run_cli(capsys, "summary", str(p))[1] == "summary: exact-fixpoint\n"
    code, out, err = run_cli(capsys, "verify", str(p), "--prop", "F (x < 0)", "--max-nodes", "100")
    assert code == 2
    assert "inconclusive (product exceeded 100 nodes: the node budget (--max-nodes)" in out
    assert "Traceback" not in out + err
    # the sizes are those built when the budget was hit
    assert "sizes: nfa 3/4 product 100/99 finals 0" in out
    code, out, _ = run_cli(
        capsys, "verify", str(p), "--prop", "F (x < 0)", "--max-nodes", "100", "--json"
    )
    assert code == 2
    sizes = json.loads(out)["sizes"]
    assert [sizes[f"product_{k}"] for k in ("nodes", "edges", "finals")] == [100, 99, 0]


@pytest.mark.parametrize(
    "model, args, actions, last",
    [
        ("counter", ("--prop", "F (x > 3)", "--max-nodes", "100"), ["inc"], {"x": "4"}),
        (
            "b3",
            ("--domain", "rat", "--prop", "F (x > 5)", "--max-nodes", "50"),
            ["a1"],
            {"x": "6", "y": "0"},
        ),
    ],
)
def test_node_budget_stop_with_a_final_built_gives_its_witness(
    capsys, tmp_path, model, args, actions, last
):
    # the nodes built before the stop are the whole product's first ones, in
    # its BFS order, so the path to the first final is the witness the
    # whole product would give; it is revalidated like any other
    p = tmp_path / "counter.ddsa"
    p.write_text(DIVERGING_COUNTER_MODEL)
    path = str(p) if model == "counter" else str(MODELS / f"{model}.ddsa")
    code, out, _ = run_cli(capsys, "verify", path, *args, "--json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["verdict"] == "witness" and doc["sizes"]["product_finals"] > 0
    assert doc["actions"] == actions and doc["run"][-1]["assign"] == last


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone, as under `damc ... | head`."""

    def __init__(self, fd: int):
        self.fd = fd

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize(
    "args, expect",
    [
        (("verify", "--prop", "F (y > 5)", "--json"), 0),
        (("verify", "--prop", "F (y > 5 & y < 0)"), 1),
        (("summary", "--json"), 0),
    ],
    ids=["verify-witness", "verify-no-witness", "summary"],
)
def test_closed_stdout_keeps_the_exit_code(monkeypatch, tmp_path, args, expect):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main([args[0], str(MODELS / "b1.ddsa"), *args[1:]]) == expect
        # stdout now points at devnull, so later writes do not fail again
        os.write(fd, b"dropped")
    finally:
        os.close(fd)
    assert (tmp_path / "stdout").read_text() == ""


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_integer_search_failure_in_the_product_is_inconclusive(capsys, monkeypatch):
    # MC detection on b1 solves nothing and the NFA is the formula's, so
    # the first is_sat call is the product's, on its first successor
    exc = UnsupportedInteger("integer search space too large")
    monkeypatch.setattr(solve, "is_sat", _raise(exc))
    code, out, err = run_cli(capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", "F (y > 5)")
    assert code == 2
    assert "inconclusive (integer search space too large)" in out
    assert "Traceback" not in out + err


def test_dnf_budget_on_a_label_is_inconclusive(capsys, monkeypatch):
    # `!=` splits into two cubes, one more than this budget allows, where
    # the product first meets the label
    monkeypatch.setattr(solve, "_DNF_CUBE_LIMIT", 1)
    code, out, _ = run_cli(
        capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", "F (x != 1 & y != 2)", "--json"
    )
    assert code == 2
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["verdict"] == "inconclusive"
    assert doc["reason"] == "DNF blow-up"
    assert doc["strategy"] == "exact-fixpoint"


def test_dnf_budget_in_the_product_reports_the_sizes_built(capsys, monkeypatch):
    # the NFA's `!=` edges fit a 4-cube budget and a later product state's
    # do not, before any final node is built (one built by then would give
    # its witness): the sizes are the product's when the budget stopped it
    monkeypatch.setattr(solve, "_DNF_CUBE_LIMIT", 4)
    args = ("verify", str(MODELS / "b1.ddsa"), "--prop", "G (x != 1 & y != 2) & X X X true")
    code, out, _ = run_cli(capsys, *args)
    assert code == 2
    assert "sizes: nfa 7/7 product 4/3 finals 0" in out
    assert "inconclusive (DNF blow-up)" in out
    code, out, _ = run_cli(capsys, *args, "--json")
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["reason"] == "DNF blow-up"
    assert doc["sizes"] == {
        "nfa_states": 7,
        "nfa_edges": 7,
        "product_nodes": 4,
        "product_edges": 3,
        "product_finals": 0,
    }


def test_dnf_budget_on_an_image_times_a_disequality_label(capsys, monkeypatch, tmp_path):
    # `x^w != x^r` images x = 0 to the two cubes x < 0 | x > 0, and the
    # label x != 5 is two cubes: each fits a 2-cube budget, the conjunction
    # of the image with the label (3 cubes) does not; without the budget
    # the query has a witness
    model = tmp_path / "ne.ddsa"
    model.write_text(
        "domain rat\nvars x\ninit x=0\nstates 1\ninitial 1\nfinal 1\n"
        "trans 1 a 1 [x^w != x^r]\n"
    )
    args = ("verify", str(model), "--prop", "X (x != 5)", "--json")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    conj_cubes, met = solve.conj_cubes, []

    def recording(left, right):
        met.append((len(left), len(right)))
        return conj_cubes(left, right)

    monkeypatch.setattr(solve, "_DNF_CUBE_LIMIT", 2)
    monkeypatch.setattr(solve, "conj_cubes", recording)
    code, out, _ = run_cli(capsys, *args)
    assert code == 2
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["reason"] == "DNF blow-up"
    assert (doc["sizes"]["product_nodes"], doc["sizes"]["product_edges"]) == (2, 1)
    assert met[-1] == (2, 2)


@pytest.mark.parametrize(
    "exc", [BudgetExceeded("DNF blow-up"), UnsupportedInteger("integer search space too large")]
)
def test_solver_failure_in_witness_extraction_is_inconclusive(capsys, monkeypatch, exc):
    # the product is built with the real solver; extraction then fails
    build = product.build_product

    def build_then_fail(*args, **kwargs):
        prod = build(*args, **kwargs)
        monkeypatch.setattr(solve, "is_sat", _raise(exc))
        return prod

    monkeypatch.setattr(product, "build_product", build_then_fail)
    code, out, err = run_cli(capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", "F (y > 5)")
    assert code == 2
    assert "sizes: nfa 3/4 product 9/12" in out
    assert f"inconclusive ({exc})" in out
    assert "Traceback" not in out + err


def test_constraint_graph_budget_under_dot_cg_is_inconclusive(capsys, tmp_path):
    # y > 5 fails at once, so the product stays at one node, but b1's
    # constraint graph needs more than two
    cg = tmp_path / "cg.dot"
    args = ("verify", str(MODELS / "b1.ddsa"), "--prop", "y > 5", "--max-nodes", "2")
    code, out, _ = run_cli(capsys, *args)
    assert code == 1
    code, out, err = run_cli(capsys, *args, "--dot-cg", str(cg))
    assert code == 2
    assert "inconclusive (--dot-cg: constraint graph exceeded 2 nodes" in out
    assert "Traceback" not in out + err
    assert not cg.exists()


def test_constraint_graph_budget_message_names_the_node_budget(capsys, tmp_path):
    # b1's constraint graph converges at 4 nodes, so a budget of 2 is just
    # small: the message must not blame the strategy's equivalence
    cg = tmp_path / "cg.dot"
    args = ("verify", str(MODELS / "b1.ddsa"), "--prop", "y > 5", "--dot-cg", str(cg))
    code, out, _ = run_cli(capsys, *args, "--max-nodes", "2")
    assert code == 2
    assert "the node budget (--max-nodes) was reached" in out
    assert "did not converge" not in out
    assert run_cli(capsys, *args, "--max-nodes", "4")[0] == 1
    assert "n3 [label=" in cg.read_text()


@pytest.mark.parametrize(
    "exc",
    [RuntimeError("boom"), product.InternalInconsistency("extracted run violates step semantics")],
)
def test_internal_error_exits_3_with_a_message(capsys, monkeypatch, exc):
    # a crash must not exit 1, which means "no witness"
    monkeypatch.setattr(product, "verify", _raise(exc))
    code, out, err = run_cli(capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", "F (y > 5)")
    assert code == 3
    assert out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_deeply_nested_property_is_a_parse_error(capsys):
    deep = "(" * 3000 + "x > 0" + ")" * 3000
    code, out, err = run_cli(capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", deep)
    assert code == 3
    assert "error: nested more than 100 levels deep" in err
    assert "Traceback" not in out + err
    # the deepest accepted nesting still gets a verdict
    ok = "(" * 100 + "x > 0" + ")" * 100
    assert run_cli(capsys, "verify", str(MODELS / "b1.ddsa"), "--prop", ok)[0] == 1


# ---------------------------------------------------------------------------
# Totality: every model and property text ends in a verdict or exit 3

_OPS = ["<", "<=", "=", "!=", ">=", ">"]
# No `!=` in guards: a rational fixpoint that no criterion bounds and whose
# guards carry one grows its classes' cube counts at every step (nothing
# drops a redundant cube yet).  On the `!=` system of the CI guard, on a
# 2-vCPU host, 30 nodes take 0.7 s, 40 take 1.7 s and 60 take 14 s, and no
# time limit bounds `verify` yet.  Equivalence no longer renormalises
# through `to_dnf`.
_GUARD_OPS = [op for op in _OPS if op != "!="]


def _atom_texts(names, ops=_OPS):
    v = st.sampled_from(names)
    term = st.one_of(
        v,
        st.builds("{} - {}".format, v, v),
        st.builds("{} + {}".format, v, v),
        st.builds("2*{}".format, v),
        st.integers(0, 3).map(str),
    )
    return st.builds("{} {} {}".format, term, st.sampled_from(ops), term)


@st.composite
def _queries(draw):
    """Model text over at most 3 variables and 4 transitions, and a property
    text over its variables, states and actions."""
    names = ["x", "y", "z"][: draw(st.integers(1, 3))]
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    finals = draw(st.lists(st.sampled_from(states), min_size=1, unique=True))
    lines = [
        "domain " + draw(st.sampled_from(["rat", "int"])),
        "vars " + " ".join(names),
        "init " + " ".join(f"{n}={draw(st.integers(0, 2))}" for n in names),
        "states " + " ".join(states),
        "initial s0",
        "final " + " ".join(finals),
    ]
    copies = [f"{n}^{k}" for n in names for k in "rw"]
    actions = [f"a{i}" for i in range(draw(st.integers(1, 4)))]
    for a in actions:
        guard = " && ".join(draw(st.lists(_atom_texts(copies, _GUARD_OPS), max_size=2)))
        src, dst = draw(st.sampled_from(states)), draw(st.sampled_from(states))
        lines.append(f"trans {src} {a} {dst} [{guard}]")
    prop = st.recursive(
        st.one_of(_atom_texts(names), st.sampled_from(states + actions)),
        lambda p: st.one_of(
            st.builds("{} ({})".format, st.sampled_from("XFG"), p),
            st.builds("<{}> ({})".format, st.sampled_from(actions), p),
            st.builds("({}) {} ({})".format, p, st.sampled_from("U&|"), p),
        ),
        max_leaves=4,
    )
    return "\n".join(lines) + "\n", draw(prop)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_queries())
def test_verify_is_total_on_small_models(query):
    model, prop = query
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ddsa"
        path.write_text(model)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path), "--prop", prop, "--max-nodes", "50", "--json"])
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert err.getvalue().startswith("error: ")
        return
    doc = json.loads(out.getvalue())
    assert code == {"witness": 0, "no-witness": 1, "inconclusive": 2}[doc["verdict"]]
    if code == 0:
        assert doc["run"] and doc["actions"] is not None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_queries())
def test_accepting_path_matches_reference_search_on_small_models(query):
    # the BFS tree the construction records gives the very path a second
    # search over the finished product finds
    model, prop = query
    try:
        d = parsing.parse_model(model)
        psi = parsing.parse_property(prop, d)
    except parsing.ParseError:
        return
    v = product.verify(d, psi, max_nodes=50)
    if v.product is not None:
        assert product.find_accepting_path(v.product) == reference_accepting_path(v.product)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines.  Timing bounds are part of the criteria and asserted.
"""
import itertools
import time
from fractions import Fraction as F

from damc import ltlf as lt, oracle, parsing
from damc.ddsa import history_constraint, validate_run
from damc.formula import (
    INT,
    RAT,
    Term,
    VarId,
    atom,
    conj,
    disj,
    evaluate,
    exact_div,
    norm_atom,
)
from damc.ltlf import (
    ActNext,
    Always,
    Constr,
    Eventually,
    Next,
    StateAtom,
    Until,
    build_nfa,
    constraints_of,
    land,
    lor,
    preprocess,
    run_models,
    word_consistent,
)
from damc.product import constraint_graph, realize_run, verify
from damc.solve import conj_cubes, cutoff, dnf_to_formula, is_sat, qe_gc, qe_rational, to_dnf
from damc import (
    certify,
    check_bounded_lookback,
    check_feedback_free,
    check_gc,
    check_mc,
    detect,
)

from conftest import (
    PAPER_NESTED_NEXT_EDGES,
    equivalent,
    frac_grid,
    gc_atoms,
    is_gc_formula,
    minimal_edges,
    nfa_paths,
)

x, y = VarId("x"), VarId("y")


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: constraint graph of B1


def test_criterion_1_constraint_graph_b1(b1):
    t0 = time.perf_counter()
    strat = detect(b1, [])
    g = constraint_graph(b1, strat)
    elapsed = time.perf_counter() - t0
    phi0 = conj(atom(x, "=", 0), atom(y, "=", 0))
    phi1 = conj(atom(x, ">", 0), atom(y, "=", 0))
    phi2 = conj(atom(x, ">", 0), atom(y, ">", x))
    phi3 = conj(atom(x, ">", y), atom(y, ">", 0))
    ok = len(g.nodes) == 4
    expected = [("1", phi0), ("2", phi1), ("1", phi2), ("2", phi3)]
    for node, (state, phi) in zip(g.nodes, expected):
        ok = ok and node.state == state and equivalent(node.formula, phi, RAT)
    ok = ok and (3, "a2", 2) in g.edges  # fixpoint edge back onto (1, phi2)
    ok = ok and elapsed < 1.0
    report(
        "criterion 1: B1 constraint graph (4 nodes, fixpoint after 4 updates)",
        ok,
        f"{len(g.nodes)} nodes in {elapsed:.3f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: history constraints of B1


def test_criterion_2_history_constraints_b1(b1):
    h = [history_constraint(b1, ["a1", "a2", "a1", "a2"][:k]) for k in range(5)]
    phi1 = conj(atom(x, ">", 0), atom(y, "=", 0))
    phi2 = conj(atom(x, ">", 0), atom(y, ">", x))
    phi3 = conj(atom(y, ">", 0), atom(x, ">", y))
    ok = (
        equivalent(h[1], phi1, RAT)
        and equivalent(h[2], phi2, RAT)
        and equivalent(h[3], phi3, RAT)
        and equivalent(h[4], phi2, RAT)
        and equivalent(h[4], h[2], RAT)
    )
    report("criterion 2: B1 history constraints match phi1..phi3, h4 = h2", ok)


# ---------------------------------------------------------------------------
# Criterion 3: gap-order machinery on B3


def norm_atom_set(phi):
    return {norm_atom(a) for a in __import__("damc.formula", fromlist=["atoms_of"]).atoms_of(phi)}


def test_criterion_3_gap_order_b3(b3):
    t0 = time.perf_counter()
    ok_gc, K = check_gc(b3, [])
    ok = ok_gc and K == 4
    h2 = history_constraint(b3, ["a1", "a2"])
    ok = ok and equivalent(h2, conj(atom(x, ">=", 2), atom(y, ">=", 3)), INT)
    h4 = history_constraint(b3, ["a1", "a2"] * 2)
    h6 = history_constraint(b3, ["a1", "a2"] * 3)
    c4, c6 = (dnf_to_formula(cutoff(to_dnf(h, INT), 4)) for h in (h4, h6))
    target = conj(
        atom(Term.of(x) - Term.of(0), ">=", 4), atom(Term.of(y) - Term.of(0), ">=", 4)
    )
    ok = ok and norm_atom_set(c4) == norm_atom_set(c6) == norm_atom_set(target)
    strat = detect(b3, [])
    g = constraint_graph(b3, strat, max_nodes=200)
    ok = ok and len(g.nodes) == 6  # finite although equivalence classes diverge
    ok = ok and not equivalent(h2, h4, INT)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 2.0
    report(
        "criterion 3: B3 gap-order (K=4, cutoffs agree, finite graph)",
        ok,
        f"{elapsed:.3f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: NFA goldens


def test_criterion_4_nfa_goldens():
    c = Constr(atom(y, ">", 5))
    nfa = build_nfa(Eventually(c))
    names = {nfa.state_name(i) for i in range(len(nfa.states))}
    psi_s = nfa.state_name(nfa.initial)
    es = {(nfa.state_name(e.src), lt.fmt_symbol(e.symbol), nfa.state_name(e.dst)) for e in nfa.edges}
    ok = len(names) == 3
    ok = ok and es == {
        (psi_s, "{y > 5}", "true"),
        (psi_s, "{y > 5}", "q_e"),
        (psi_s, "{}", psi_s),
        ("true", "{}", "true"),
    }

    gap = Constr(atom(Term.of(x) - Term.of(y), ">=", 2))
    psi2 = Eventually(land(StateAtom("b"), Next(gap)))
    nfa2 = build_nfa(psi2)
    ok = ok and len(nfa2.states) == 4
    mid = [
        nfa2.state_name(i)
        for i, s in enumerate(nfa2.states)
        if i != nfa2.initial and s not in (lt.TOP, lt.QE_STATE)
    ]
    ok = ok and len(mid) == 1
    if ok:
        p, m = nfa2.state_name(nfa2.initial), mid[0]
        es2 = sorted(
            (nfa2.state_name(e.src), lt.fmt_symbol(e.symbol), nfa2.state_name(e.dst))
            for e in nfa2.edges
        )
        # the paper's edges less the two {b, x - y >= 2} ones, which
        # {x - y >= 2} dominates between the same states
        ok = es2 == minimal_edges(PAPER_NESTED_NEXT_EDGES, {"p": p, "m": m})
    report("criterion 4: NFA goldens for F c and F (b & X gap)", ok)


# ---------------------------------------------------------------------------
# Criterion 5: product and witness for B1, F (y > 5)


def test_criterion_5_product_witness_b1(b1):
    t0 = time.perf_counter()
    psi = parsing.parse_property("F (y > 5)", b1)
    v = verify(b1, psi)
    elapsed = time.perf_counter() - t0
    ok = v.kind == "witness" and v.sizes["product_nodes"] == 9
    ok = ok and validate_run(b1, v.run)
    ok = ok and v.run.configs[-1].state in b1.finals
    ok = ok and run_models(b1, v.run, 0, preprocess(psi))
    final = v.run.configs[-1].assignment()
    ok = ok and final[y] > 5 and final[x] > final[y]
    ok = ok and elapsed < 1.0
    report(
        "criterion 5: B1 product (9 nodes) and validated witness",
        ok,
        f"{elapsed:.3f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: auction suite


AUCTION_PROPS = [
    ("psi11", "F (sold & d>0 & o<=t)", "no-witness"),
    ("psi12", "F (b=1 & o>t & F (sold & b!=1))", "witness"),
    ("psi13", "F (sold & b=0)", "no-witness"),
    ("psi14", "(s=0) U (d<=0 | o>t)", "witness"),
    ("psi15", "G (s=0) | ((d>0 & o<=t) U (s!=0))", "no-witness"),
]


def test_criterion_6_auction_suite(auction):
    shape_ok = None
    lines = []
    ok = True
    for name, text, expect in AUCTION_PROPS:
        psi = parsing.parse_property(text, auction)
        t0 = time.perf_counter()
        v = verify(auction, psi)
        elapsed = time.perf_counter() - t0
        good = v.kind == expect and elapsed < 30.0
        ok = ok and good
        lines.append(f"{name}={v.kind} in {elapsed:.1f}s")
        if v.kind == "witness":
            ok = ok and validate_run(auction, v.run)
            ok = ok and run_models(auction, v.run, 0, preprocess(psi))
        if shape_ok is None:
            shape_ok = certify(auction, constraints_of(preprocess(psi))) == (
                "var-compose({d}: seq-compose(exact-fixpoint, MC; cut='end'); "
                "{o,t,s}: seq-compose(MC, feedback-free; cut='end'); {b}: MC)"
            )
    ok = ok and bool(shape_ok)
    report("criterion 6: auction property suite + composed strategy", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# Criterion 7: classifier verdicts on the four small systems


def test_criterion_7_classifier_verdicts(b1, b1_int, b2, b3, b4):
    s = VarId("s")
    C = [atom(x, ">", 5), atom(s, ">", 0)]
    verdicts = {
        "B1 MC over Q": check_mc(b1, []),
        "B1 GC over Z": check_gc(b1_int, [])[0],
        "B1 no C3": not check_feedback_free(b1, [], 2),
        "B1 no C4": not check_bounded_lookback(b1, [], 4, 5),
        "B2 feedback-free": check_feedback_free(b2, C, 2),
        "B2 2-bounded-lookback": check_bounded_lookback(b2, C, 2, 3),
        "B3 GC": check_gc(b3, [])[0],
        "B3 no MC": not check_mc(b3, []),
        "B3 no C3": not check_feedback_free(b3, [], 2),
        "B3 no C4": not check_bounded_lookback(b3, [], 4, 5),
        "B4 3-bounded-lookback": check_bounded_lookback(b4, C, 3, 3),
        "B4 no MC": not check_mc(b4, []),
        "B4 no GC": not check_gc(b4, [])[0],
        "B4 no feedback-free": not check_feedback_free(b4, C, 2),
    }
    bad = [k for k, v in verdicts.items() if not v]
    report("criterion 7: eight classifier verdicts", not bad, "wrong: " + ", ".join(bad) if bad else "all agree")


# ---------------------------------------------------------------------------
# Criterion 8a: QE soundness over >= 500 random formulas


def random_linear_atom(rng, vars_, coeff_hi=3, const_hi=5):
    t = Term.make(
        [(v, F(rng.randint(-coeff_hi, coeff_hi))) for v in vars_],
        F(rng.randint(-const_hi, const_hi)),
    )
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    return atom(t, op, Term.of(0))


def random_formula(rng, vars_, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return random_linear_atom(rng, vars_)
    a = random_formula(rng, vars_, depth - 1)
    b = random_formula(rng, vars_, depth - 1)
    return conj(a, b) if rng.random() < 0.5 else disj(a, b)


def exists_on_candidates(phi, alpha, var, candidates):
    for c in candidates:
        full = dict(alpha)
        full[var] = c
        if evaluate(phi, full):
            return True
    return False


def breakpoints(phi, alpha, var):
    """Candidate values for var: atom bounds under alpha, midpoints, fringes."""
    pts = set()
    for a in __import__("damc.formula", fromlist=["atoms_of"]).atoms_of(phi):
        na = norm_atom(a)
        cs = dict(na.coeffs)
        cv = cs.get(var)
        if cv is None:
            continue
        rest = Term(tuple((v, c) for v, c in na.coeffs if v != var))
        pts.add(exact_div(na.const - rest.value(alpha), cv))
    if not pts:
        return [F(0)]
    lo, hi = min(pts), max(pts)
    out = set(pts) | {lo - 1, hi + 1}
    srt = sorted(pts)
    for a, b in zip(srt, srt[1:]):
        out.add(exact_div(a + b, 2))
    return sorted(out)


def test_criterion_8a_qe_soundness(rng):
    z = VarId("z")
    checked = 0
    failures = 0
    grid = [F(k) for k in range(-3, 4)] + [F(2 * k + 1, 2) for k in range(-3, 3)]
    for _ in range(350):
        phi = random_formula(rng, [x, y, z])
        out = dnf_to_formula(qe_rational([z], tuple(to_dnf(phi))))
        checked += 1
        for ax in [F(-2), F(0), F(1), F(5, 2)]:
            for ay in [F(-1), F(0), F(3)]:
                alpha = {x: ax, y: ay}
                want = exists_on_candidates(phi, alpha, z, breakpoints(phi, alpha, z))
                got = evaluate(out, alpha)
                if want != got:
                    failures += 1
    # integer gap-order side: gaps p - q >= k, bounds v op k with k a half
    # integer, and v = w, v != w
    nodes = [x, y, z, 0, 1, 3]

    def gc_leaf():
        shape = rng.randrange(3)
        if shape == 0:
            p, q = rng.choice(nodes), rng.choice(nodes)
            return atom(Term.of(p) - Term.of(q), ">=", rng.randint(0, 4))
        if shape == 1:
            op = rng.choice(("<", "<=", ">", ">=", "=", "!="))
            return atom(rng.choice([x, y, z]), op, F(rng.randint(-4, 8), 2))
        v, w = rng.sample([x, y, z], 2)
        return atom(v, rng.choice(("=", "!=")), w)

    for _ in range(200):
        cubes = [gc_leaf() for _ in range(3)]
        phi = conj(*cubes[:2]) if rng.random() < 0.5 else conj(cubes[0], disj(*cubes[1:3]))
        out = dnf_to_formula(qe_gc([z], tuple(to_dnf(phi, INT))))
        checked += 1
        ok_gc = is_gc_formula(out)
        if not ok_gc:
            failures += 1
        for ax in range(-2, 5):
            for ay in range(-2, 5):
                alpha = {x: F(ax), y: F(ay)}
                want = any(evaluate(phi, {**alpha, z: F(c)}) for c in range(-8, 13))
                if evaluate(out, alpha) != want:
                    failures += 1
    report(
        "criterion 8a: QE soundness grids",
        checked >= 500 and failures == 0,
        f"{checked} formulas, {failures} failures",
    )


# ---------------------------------------------------------------------------
# Criterion 8b: cutoff equisatisfiability over >= 500 random GC formulas


def random_gc_formula(rng, depth=2):
    nodes = [x, y, VarId("z"), 0, 2, 5]
    def leaf():
        p, q = rng.sample(nodes, 2)
        return atom(Term.of(p) - Term.of(q), ">=", rng.randint(0, 9))
    if depth == 0:
        return leaf()
    a = random_gc_formula(rng, depth - 1) if rng.random() < 0.6 else leaf()
    b = random_gc_formula(rng, depth - 1) if rng.random() < 0.6 else leaf()
    return conj(a, b) if rng.random() < 0.6 else disj(a, b)


def gc_bound(*formulas) -> int:
    """K derived from a formula set: largest constant distance plus one,
    over all endpoint constants and gaps, with 0 always included."""
    consts = {0}
    for f in formulas:
        for _, _, triples in gc_atoms(f):
            for (p, q, k) in triples:
                consts.add(k)
                if isinstance(p, int):
                    consts.add(p)
                if isinstance(q, int):
                    consts.add(q)
    return max(consts) - min(consts) + 1


def test_criterion_8b_cutoff_equisat(rng):
    checked = failures = 0
    for _ in range(520):
        phi = random_gc_formula(rng)
        K = gc_bound(phi)
        checked += 1
        cubes = tuple(to_dnf(phi, INT))
        if is_sat(cubes, INT).sat != is_sat(cutoff(cubes, K), INT).sat:
            failures += 1
    # commutation with update-style combination on random small pairs
    for _ in range(60):
        u = VarId("u")
        phi = conj(
            atom(Term.of(u) - Term.of(0), ">=", rng.randint(0, 8)),
            atom(Term.of(x) - Term.of(u), ">=", rng.randint(0, 8)),
        )
        psi = atom(Term.of(y) - Term.of(u), ">=", rng.randint(0, 8))
        K = gc_bound(phi, psi)
        p, q = to_dnf(phi, INT), to_dnf(psi, INT)
        lhs = cutoff(qe_gc([u], conj_cubes(p, q)), K)
        rhs = cutoff(qe_gc([u], conj_cubes(cutoff(p, K), cutoff(q, K))), K)
        checked += 1
        if not equivalent(dnf_to_formula(lhs), dnf_to_formula(rhs), INT):
            failures += 1
    report(
        "criterion 8b: cutoff equisatisfiability",
        checked >= 500 and failures == 0,
        f"{checked} formulas, {failures} failures",
    )


# ---------------------------------------------------------------------------
# Criterion 8c: run/history correspondence both directions, >= 200 runs


def constraint_pool(d):
    out = []
    for v in d.variables:
        out.append(atom(v, ">=", 0))
        out.append(atom(v, ">", 1))
    for v, w in zip(d.variables, d.variables[1:]):
        out.append(atom(v, ">=", w))
    return out


def test_criterion_8c_history_correspondence(rng, b1, b2, b3, b4):
    from damc.certificates import enumerate_symbolic_runs

    direction1 = 0
    for d, grid_hi, maxlen in ((b1, 3, 3), (b2, 3, 3), (b3, 6, 3), (b4, 2, 3)):
        grid = frac_grid(0, grid_hi, halves=d.domain == RAT)
        pool = constraint_pool(d)
        for run in itertools.islice(oracle.enumerate_runs(d, maxlen, grid), 45):
            cseq = []
            for cfg in run.configs:
                alpha = cfg.assignment()
                holding = [c for c in pool if evaluate(c, alpha)]
                cseq.append([c for c in holding if rng.random() < 0.5])
            h = history_constraint(d, list(run.actions), cseq)
            assert evaluate(h, run.configs[-1].assignment())
            direction1 += 1
    assert direction1 >= 160

    direction2 = 0
    for d in (b1, b2, b3, b4):
        pool = constraint_pool(d)
        symbolic = [a for a in enumerate_symbolic_runs(d, 2) if a]
        for actions, _ in itertools.product(symbolic, range(4)):
            if direction2 >= 60:
                break
            # position 0 is pinned by the initial assignment; draw later
            # constraint sets sparsely so satisfiable cases are common
            cseq = [[]] + [
                [c for c in pool if rng.random() < 0.25] for _ in range(len(actions))
            ]
            h = history_constraint(d, actions, cseq)
            if not is_sat(to_dnf(h, d.domain), d.domain).sat:
                continue
            run = realize_run(d, actions, cseq)
            assert run is not None
            assert validate_run(d, run)
            assert evaluate(h, run.configs[-1].assignment())
            for cfg, cs in zip(run.configs, cseq):
                alpha = cfg.assignment()
                assert all(evaluate(c, alpha) for c in cs)
            direction2 += 1
    total = direction1 + direction2
    report(
        "criterion 8c: run/history correspondence",
        total >= 200 and direction2 >= 30,
        f"{direction1} forward + {direction2} backward runs",
    )


# ---------------------------------------------------------------------------
# Criterion 8d: NFA acceptance vs direct semantics, >= 100 pairs


def sample_properties(d, rng):
    cs = [Constr(atom(y, ">", 2)), Constr(atom(x, "=", 0)), Constr(atom(x, ">", y))]
    states = [StateAtom(s) for s in d.states[:2]]
    acts = [ActNext(a, Constr(atom(x, ">=", 0))) for a in d.actions[:1]]
    base = cs + states
    out = []
    for c in cs:
        out.append(Eventually(c))
        out.append(Always(lor(c, rng.choice(base))))
    out.append(Until(cs[1], cs[0]))
    out.append(Next(cs[0]))
    out.append(land(rng.choice(states), Eventually(cs[2])))
    out.extend(acts)
    return out


def test_criterion_8d_nfa_acceptance(rng, b1, b2):
    pairs = mismatches = 0
    for d in (b1, b2):
        runs = list(itertools.islice(oracle.enumerate_runs(d, 3, frac_grid(0, 3, halves=True)), 30))
        for psi in sample_properties(d, rng):
            pre = preprocess(psi)
            nfa = build_nfa(pre)
            for run in runs:
                want = run_models(d, run, 0, pre)
                got = any(
                    word_consistent(d, [e.symbol for e in path], run)
                    for path in nfa_paths(nfa, len(run) + 1)
                )
                pairs += 1
                if want != got:
                    mismatches += 1
    report(
        "criterion 8d: NFA acceptance equals trace semantics",
        pairs >= 100 and mismatches == 0,
        f"{pairs} pairs, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# Criterion 8e: verify vs oracle on the four systems, >= 50 properties


def properties_for(d):
    vs = [v for v in d.variables]
    a0 = d.actions[0]
    out = []
    for v in vs:
        out.append(f"F ({v.name} > 5)")
        out.append(f"F ({v.name} > 5 & {v.name} < 3)")
        out.append(f"G ({v.name} >= 0)")
    v0, v1 = vs[0].name, vs[-1].name
    out.append(f"({v0} = 0) U ({v0} > 2)")
    out.append(f"F X ({v0} >= 1)")
    out.append(f"<{a0}> true")
    out.append(f"F ({d.states[-1]} & {v0} >= 0)")
    out.append(f"({v0} >= 0) U {d.states[-1]}")
    out.append(f"G ({v0} < 6) | F ({v1} > 6)")
    out.append(f"X ({v0} > 0)")
    return out


def test_criterion_8e_verify_vs_oracle(b1, b2, b3, b4):
    grid = [F(k) for k in range(0, 9)]
    total = 0
    agree = True
    details = []
    for d in (b1, b2, b3, b4):
        for text in properties_for(d):
            psi = parsing.parse_property(text, d)
            v = verify(d, psi)
            found = oracle.brute_force_witness(d, psi, 5, grid)
            total += 1
            if found is not None and v.kind != "witness":
                agree = False
                details.append(f"oracle found but verify said {v.kind}: {text}")
            if v.kind == "no-witness" and found is not None:
                agree = False
                details.append(f"verify denied but oracle found: {text}")
    report(
        "criterion 8e: verify agrees with brute force",
        total >= 50 and agree,
        f"{total} properties" + ("; " + "; ".join(details) if details else ""),
    )

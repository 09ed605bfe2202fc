"""CLI contract tests: exit codes, report schema, determinism."""

import argparse
import contextlib
import dataclasses
import functools
import importlib.util
import io
import itertools
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ramanujan_bigraphs import algebra, cli, graphs, lattices, numberfield, trees

_SCHEMAS = resources.files("ramanujan_bigraphs") / "schemas"
REPORT_SCHEMA = json.loads((_SCHEMAS / "report.schema.json").read_text())
GRAPH_SCHEMA = json.loads((_SCHEMAS / "graph.schema.json").read_text())


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["exit_code"] == code
    return code, report


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    doc = graphs.graph_to_json(g)
    jsonschema.validate(doc, GRAPH_SCHEMA)
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# verify-algebra
# ---------------------------------------------------------------------------

def test_verify_algebra_default(capsys):
    code, rep = run(["verify-algebra", "--samples", "10"], capsys)
    assert code == 0
    conds = rep["results"]["conditions"]
    assert conds["witness_prime_a"]["value"] == 7
    assert conds["division_condition"]["value"] is True


def test_verify_algebra_computes_the_obstruction_once(capsys, count_calls):
    # the witness is 7, the first witness prime: one obstruction record, kept
    # by the condition report and printed as obstruction_at_witness
    for module in (numberfield, algebra, cli):    # every name the function is bound to
        if hasattr(module, "local_norm_obstruction"):
            calls = count_calls(module, "local_norm_obstruction")
    code, rep = run(["verify-algebra", "--samples", "1"], capsys)
    assert (code, calls) == (0, {"local_norm_obstruction": 1})
    assert rep["results"]["obstruction_at_witness"]["prime"]["value"] == 7


def test_verify_algebra_a_one(capsys):
    code, rep = run(["verify-algebra", "--a", "1", "--samples", "5"], capsys)
    assert code == 1
    assert rep["results"]["conditions"]["division_condition"]["value"] is False


@pytest.mark.parametrize("a, code, division", [
    (str(10 ** 400), 1, None),              # too large for a float cube root; a*tau(a) != 1
    (str((10 ** 17 + 3) ** 3), 1, False),   # a rational cube is a norm
], ids=["10^400", "cube"])
def test_verify_algebra_huge_integer_a(capsys, a, code, division):
    got, rep = run(["verify-algebra", "--a", a, "--samples", "2"], capsys)
    assert got == code
    assert rep["results"]["conditions"]["division_condition"]["value"] is division


def test_verify_algebra_nongalois(capsys):
    code, rep = run(["verify-algebra", "--kind", "nongalois", "--samples", "10"], capsys)
    assert code == 1
    suite = rep["results"]["involution_suite"]
    assert suite["alpha_squared_is_identity"]["value"] is True


def test_verify_algebra_exact_valuations(capsys):
    # v_7(a^2) = 40: the valuations are exact however large they are
    a = "*".join(["7"] * 20)
    code, rep = run(["verify-algebra", "--a", a, "--samples", "2"], capsys)
    assert (code, rep["status"]) == (1, "fail")       # the involution laws fail
    conds = rep["results"]["conditions"]
    assert conds["division_condition"]["value"] is True
    assert conds["unit_norm_condition"]["value"] is False
    assert rep["results"]["obstruction_at_witness"]["valuations"]["value"] == [20, 20]
    code, _ = run(["verify-algebra", "--a", a, "--precision", "41"], capsys)
    assert code == 64                                  # no such option


K33 = "<path of a K_3,3 graph file>"


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "--kind", "galois", "--b", "2"],
    ["verify-algebra", "--kind", "nongalois", "--a", "2"],
    ["verify-algebra", "--a", "True"],                 # a bool is not an integer
    ["verify-algebra", "--a", "False"],
    ["--paper-suite", "primes", "--up-to", "10"],
    ["--seed", "5", "verify-algebra", "--samples", "1"],   # the subcommand's --seed follows it
    ["verify-algebra", "--samples", "0"],
    ["verify-algebra", "--samples", "-3"],
    ["verify-algebra", "--a=" + "+".join(["1"] * 3000)],    # nested too deep to evaluate
    ["verify-algebra", "--a=" + "-" * 3000 + "1"],
    ["tree", "--l", "9", "--m", "3", "--radius", "-1"],
    ["tree", "--l", "1", "--m", "3", "--radius", "2"],
    ["verify-algebra", "--a", "1-1"],
    ["verify-algebra", "--kind", "nongalois", "--b", "0"],
    ["primes", "--up-to", "1"],
    ["certify", K33, "--tolerance", "nan"],    # no command takes a --tolerance: it is fixed
    ["certify", K33, "--tolerance", "inf"],
    ["certify", K33, "--tolerance", "-1"],
    ["certify", K33, "--tolerance", "-1e-9"],
    ["spectrum", K33, "--tolerance", "nan"],
    ["spectrum", K33, "--tolerance", "-0.5"],
    ["spectrum", K33, "--tolerance", "0"],
    ["expansion", K33, "--ceiling", "100"],    # every bound is fixed, none is an option
    ["tree", "--l", "9", "--m", "3", "--radius", "2", "--ceiling", "5"],
    ["finite-group", "--q", "2", "--ceiling", "10"],
    ["verify-algebra", "--witness-limit", "300"],
    ["primes", "--up", "10"],                  # no option takes an abbreviation
    ["verify-algebra", "--sam", "1"],
    ["verify-algebra", "--a", "-1e-9"],        # an exponent is no integer, and no option name
    ["verify-algebra", "--samples", "-1e3"],
    ["verify-algebra", "--a", "-(2+w)/(2-w)"],  # read as an option name: write --a=-(2+w)/(2-w)
], ids=["b-with-galois", "a-with-nongalois", "a-True", "a-False", "paper-suite-with-command",
        "seed-before-command", "samples-0", "samples-negative", "deep-sum", "deep-negation",
        "radius-negative", "tree-degree-1", "a-zero", "b-zero", "up-to-1",
        "certify-tolerance-nan", "certify-tolerance-inf", "certify-tolerance-negative",
        "certify-tolerance-negative-exponent",
        "spectrum-tolerance-nan", "spectrum-tolerance-negative", "spectrum-tolerance-zero",
        "expansion-ceiling", "tree-ceiling", "finite-group-ceiling",
        "verify-algebra-witness-limit", "primes-abbreviated", "verify-algebra-abbreviated",
        "a-negative-exponent", "samples-negative-exponent", "a-leading-minus"])
def test_ignored_or_non_integer_input_is_usage_error(tmp_path, capsys, argv):
    k33 = write_graph(tmp_path, graphs.complete_bipartite(3, 3))
    code, rep = run([k33 if a == K33 else a for a in argv], capsys)
    assert (code, rep["command"]) == (64, "usage-error")
    removed = [i for i, a in enumerate(argv)
               if a in ("--ceiling", "--witness-limit", "--sam", "--tolerance")]
    if removed:
        assert rep["results"]["error"] == "unrecognized arguments: " + " ".join(argv[removed[0]:])
    elif "--up" in argv:                       # --up-to is required, and --up is not it
        assert rep["results"]["error"] == "the following arguments are required: --up-to"


# every option of the CLI, by subcommand ("" is the top level): each bound on
# a scan and each tolerance is a fixed constant, so a new option shows up as a
# diff of this table
CLI_OPTIONS = {
    "": ["--paper-suite", "--seed"],
    "verify-algebra": ["--kind", "--a", "--b", "--samples", "--seed"],
    "certify": ["--format"],
    "spectrum": [],
    "expansion": [],
    "tree": ["--l", "--m", "--radius", "--root-side", "--out"],
    "primes": ["--up-to"],
    "finite-group": ["--q", "--n"],
    "random-bigraph": ["--n1", "--n2", "--l", "--m", "--seed", "--out"],
}


def test_cli_options_are_pinned():
    def options(parser):
        return [s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")]
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {"": options(parser), **{name: options(p) for name, p in sub.choices.items()}} == \
        CLI_OPTIONS
    # argparse reads -1e-9 as an option name, not a number: no option takes a float
    assert not any(a.type is float for p in (parser, *sub.choices.values()) for a in p._actions)
    # an option string is taken whole or not at all: no prefix names it
    assert not parser.allow_abbrev
    assert not any(p.allow_abbrev for p in sub.choices.values())


@pytest.mark.parametrize("signed, plain", [
    (["--a=-1"], ["--a", "0-1"]),
    (["--kind", "nongalois", "--b=+2*zeta3"], ["--kind", "nongalois", "--b", "2*zeta3"]),
], ids=["a-minus", "b-plus"])
def test_unary_signs_in_field_elements(capsys, signed, plain):
    # a value that starts with a sign is written --a=...: the signed and the
    # unsigned spelling of one element give one report
    signed, plain = (run(["verify-algebra", "--samples", "2", *argv], capsys)[1]
                     for argv in (signed, plain))
    assert signed["results"] == plain["results"]


def test_verify_algebra_bad_expression(capsys):
    code, _ = run(["verify-algebra", "--a", "import os"], capsys)
    assert code == 64


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_exit_codes(tmp_path, capsys):
    k44 = write_graph(tmp_path, graphs.complete_bipartite(4, 4), "k44.json")
    code, rep = run(["certify", k44], capsys)
    assert code == 0 and rep["results"]["certificate"]["is_ramanujan"]

    k23 = write_graph(tmp_path, graphs.complete_bipartite(2, 3), "k23.json")
    code, _ = run(["certify", k23], capsys)
    assert code == 1

    disc = write_graph(tmp_path, graphs.Graph(4, ((0, 1), (2, 3))), "disc.json")
    code, _ = run(["certify", disc], capsys)
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(["certify", str(bad)], capsys)
    assert code == 64

    bad.write_text(json.dumps({"n": 3, "edges": [[0, 1.5]]}))   # vertex ids are integers
    code, rep = run(["certify", str(bad)], capsys)
    assert (code, rep["command"]) == (64, "parse-error")


def test_single_vertex_graph(tmp_path, capsys):
    k1 = write_graph(tmp_path, graphs.Graph(1, ()))
    code, rep = run(["spectrum", k1], capsys)
    assert (code, rep["results"]["lambda"]["value"]) == (0, 0.0)
    code, rep = run(["certify", k1], capsys)       # the degree-0 window is undefined
    assert (code, rep["command"]) == (2, "precondition-error")


def test_certify_disagreeing_windows_is_precondition(tmp_path, capsys, monkeypatch):
    # at tolerance 0.2, lambda(K_2,3) = 0 fails def22 but passes def23
    monkeypatch.setattr(graphs, "DEFAULT_TOLERANCE", 0.2)
    k23 = write_graph(tmp_path, graphs.complete_bipartite(2, 3))
    code, rep = run(["certify", k23], capsys)
    assert (code, rep["command"]) == (2, "precondition-error")
    assert "def22 and def23" in rep["results"]["error"]


def test_certify_tolerance_zero_gets_a_verdict(tmp_path, capsys, monkeypatch):
    # the SVD route exited 2 on both: a trivial eigenvalue "not found" by rounding
    monkeypatch.setattr(graphs, "DEFAULT_TOLERANCE", 0.0)
    for g in (graphs.random_biregular(60, 180, 9, 3, seed=0), graphs.cycle(7)):
        code, rep = run(["certify", write_graph(tmp_path, g)], capsys)
        assert (code, rep["command"]) in ((0, "certify"), (1, "certify"))


def test_certify_large_tolerance_gets_a_verdict(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphs, "DEFAULT_TOLERANCE", 5.0)
    k33 = write_graph(tmp_path, graphs.complete_bipartite(3, 3), "k33.json")
    code, rep = run(["certify", k33], capsys)
    assert (code, rep["command"]) == (0, "certify")
    disc = write_graph(tmp_path, graphs.Graph(4, ((0, 1), (2, 3))), "disc.json")
    code, rep = run(["certify", disc], capsys)
    assert (code, rep["command"]) == (2, "precondition-error")


def test_reports_name_the_eigenproblem(tmp_path, capsys):
    bigraph = write_graph(tmp_path, graphs.random_biregular(60, 180, 9, 3, seed=7), "b.json")
    odd = write_graph(tmp_path, graphs.cycle(7), "c7.json")
    # certify decomposes the deflated r x r Gram matrix, spectrum the r x c biadjacency
    for path, command, shape in ((bigraph, "certify", [60, 60]), (bigraph, "spectrum", [60, 180]),
                                 (odd, "certify", [7, 7]), (odd, "spectrum", [7, 7])):
        code, rep = run([command, path], capsys)
        assert code in (0, 1)
        assert rep["results"]["eigenproblem"] == {"value": shape, "method": "exact"}


def test_certify_dot_format(tmp_path, capsys):
    k44 = write_graph(tmp_path, graphs.complete_bipartite(4, 4))
    code, rep = run(["certify", k44, "--format", "dot"], capsys)
    assert code == 0 and rep["results"]["graph_dot"].startswith("graph G {")


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------

def test_spectrum_and_expansion(tmp_path, capsys):
    k23 = write_graph(tmp_path, graphs.complete_bipartite(2, 3))
    code, rep = run(["spectrum", k23], capsys)
    assert code == 0 and len(rep["results"]["eigenvalues"]["value"]) == 5
    code, rep = run(["expansion", k23], capsys)
    assert code == 0 and rep["results"]["c"]["value"] == "1"


def test_tree(tmp_path, capsys):
    out = str(tmp_path / "ball.json")
    code, rep = run(["tree", "--l", "9", "--m", "3", "--radius", "2", "--out", out], capsys)
    assert code == 0
    assert rep["results"]["vertices"]["value"] == 28
    assert rep["results"]["level_counts"]["value"] == [1, 9, 18]
    # the written file reads back, through spectrum too, as the same ball
    assert graphs.load_graph(out) == trees.biregular_tree_ball(9, 3, 2).graph
    code, rep = run(["spectrum", out], capsys)
    assert code == 0 and len(rep["results"]["eigenvalues"]["value"]) == 28
    assert rep["results"]["connected"]["value"] and rep["results"]["bipartite"]["value"]


def test_primes(capsys):
    code, rep = run(["primes", "--up-to", "30"], capsys)
    assert code == 0
    assert rep["results"]["good_primes"]["value"] == [2, 5, 11, 17, 23, 29]


def test_finite_group_and_ceiling(tmp_path, capsys, monkeypatch):
    code, rep = run(["finite-group", "--q", "2"], capsys)
    assert code == 0 and rep["results"]["order"]["value"] == 216
    assert rep["results"]["order"]["method"] == "enumerated"
    # every brute-force scan refuses a run above its fixed ceiling the same
    # way; the ceilings of q = 2 and a radius-4 ball are lowered to reach them
    monkeypatch.setattr(lattices, "DEFAULT_ENUM_CEILING", 10)
    monkeypatch.setattr(trees, "DEFAULT_TREE_CEILING", 5)
    monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_parser))   # reads them anew
    c22 = write_graph(tmp_path, graphs.cycle(22))
    c65 = write_graph(tmp_path, graphs.cycle(65), "c65.json")   # above the scan's 64-bit word
    for argv, ceiling in ((["finite-group", "--q", "2"], lattices.DEFAULT_ENUM_CEILING),
                          (["tree", "--l", "9", "--m", "3", "--radius", "4"],
                           trees.DEFAULT_TREE_CEILING),
                          (["primes", "--up-to", str(lattices.PRIMES_CEILING + 1)],
                           lattices.PRIMES_CEILING),
                          (["primes", "--up-to", str(10 ** 15)], lattices.PRIMES_CEILING),
                          # a feasible star on ceiling + 1 vertices, and a (9, 3) draw
                          # that would run for hours
                          (["random-bigraph", "--n1", "1", "--n2", str(graphs.SPECTRUM_CEILING),
                            "--l", str(graphs.SPECTRUM_CEILING), "--m", "1", "--seed", "1"],
                           graphs.SPECTRUM_CEILING),
                          (["random-bigraph", "--n1", "100000", "--n2", "300000", "--l", "9",
                            "--m", "3", "--seed", "1"], graphs.SPECTRUM_CEILING),
                          (["expansion", c22], 20),
                          (["expansion", c65], 20)):
        code, rep = run(argv, capsys)
        assert (code, rep["command"], rep["inputs"]["ceiling"]) == \
            (2, "precondition-error", ceiling)


def test_inputs_record_the_constants_read_per_report(tmp_path, capsys, monkeypatch):
    # the cached parser is built before the constants change; each report
    # records the bound and the tolerance that applied to it
    cli._parser()
    monkeypatch.setattr(trees, "DEFAULT_TREE_CEILING", 5)
    monkeypatch.setattr(graphs, "DEFAULT_TOLERANCE", 0.25)
    code, rep = run(["tree", "--l", "9", "--m", "3", "--radius", "4"], capsys)
    assert (code, rep["command"], rep["inputs"]["ceiling"]) == (2, "precondition-error", 5)
    code, rep = run(["certify", write_graph(tmp_path, graphs.complete_bipartite(3, 3))], capsys)
    assert (code, rep["inputs"]["tolerance"]) == (0, 0.25)
    assert rep["results"]["certificate"]["def22"]["method"] == "floating(0.25)"


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def crash(bound):
        raise RuntimeError("boom")
    monkeypatch.setattr(lattices, "good_primes_up_to", crash)
    code = cli.main(["primes", "--up-to", "30"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)                  # exactly one document
    jsonschema.validate(report, REPORT_SCHEMA)
    assert (code, report["exit_code"], report["status"], report["command"]) == \
        (70, 70, "error", "internal-error")
    assert report["results"] == {"command": "primes", "error": "RuntimeError: boom"}
    assert "RuntimeError: boom" in captured.err


def test_random_bigraph_deterministic(capsys):
    args = ["random-bigraph", "--n1", "3", "--n2", "9", "--l", "9", "--m", "3",
            "--seed", "11"]
    code1, rep1 = run(args, capsys)
    code2, rep2 = run(args, capsys)
    assert code1 == code2 == 0
    assert rep1["results"]["graph"] == rep2["results"]["graph"]
    jsonschema.validate(rep1["results"]["graph"], GRAPH_SCHEMA)


@pytest.mark.parametrize("argv, profile", [
    (["--n1", "4", "--n2", "4", "--l", "2", "--m", "2", "--seed", "1"], [4, 4, 2, 2]),
    (["--n1", "6", "--n2", "6", "--l", "6", "--m", "6", "--seed", "3"], [6, 6, 6, 6]),
    (["--n1", "6", "--n2", "18", "--l", "9", "--m", "3", "--seed", "11"], [6, 18, 9, 3]),
    (["--n1", "18", "--n2", "6", "--l", "3", "--m", "9", "--seed", "11"], [6, 18, 9, 3]),
], ids=["regular-2", "complete-6-6", "9-3", "3-9"])
def test_random_bigraph_reports_its_profile(capsys, argv, profile):
    # an l = m draw is a regular graph, and its profile counts the sides from the parts
    code, rep = run(["random-bigraph", *argv], capsys)
    assert (code, rep["results"]["profile"]) == (0, {"value": profile, "method": "exact"})


def test_commands_build_no_tuples(tmp_path, capsys, monkeypatch):
    # the commands, and the library calls behind them on array-built graphs,
    # read only the arrays: no edge or part tuple is built
    def refuse(g):
        raise AssertionError("a tuple of edges or parts was built")
    for name in ("edges", "parts"):
        monkeypatch.setitem(graphs._TUPLES, name, refuse)
    out = str(tmp_path / "k66.json")
    code, rep = run(["random-bigraph", "--n1", "6", "--n2", "6", "--l", "6", "--m", "6",
                     "--seed", "3", "--out", out], capsys)
    assert (code, rep["results"]["profile"]["value"]) == (0, [6, 6, 6, 6])
    assert run(["tree", "--l", "9", "--m", "3", "--radius", "2"], capsys)[0] == 0
    for argv in (["certify", out], ["certify", out, "--format", "dot"],
                 ["spectrum", out], ["expansion", out]):
        assert run(argv, capsys)[0] == 0
    k66 = graphs.random_biregular(6, 6, 6, 6, 3)
    c7 = graphs.Graph(7, np.array([(i, (i + 1) % 7) for i in range(7)]))
    for g in (k66, c7):
        assert graphs.certify_ramanujan(g).is_ramanujan
        assert len(graphs.spectrum(g).values) == g.n
        assert graphs.expansion_coefficient(g).lam is not None
        assert graphs.to_dot(g).count(" -- ") == len(g.edge_array())
        assert "edges" not in vars(g) and vars(g).get("parts") is None


def test_random_bigraph_edge_ceiling(capsys):
    # 2809 * 89 = EDGE_CEILING + 1 edges, on fewer vertices than the spectrum ceiling
    argv = ["random-bigraph", "--n1", "2809", "--n2", "2809", "--l", "89", "--m", "89",
            "--seed", "1"]
    code, rep = run(argv, capsys)
    assert (code, rep["command"]) == (2, "precondition-error")
    assert (rep["inputs"]["ceiling"], rep["inputs"]["edge_ceiling"]) == \
        (graphs.SPECTRUM_CEILING, graphs.EDGE_CEILING)
    assert "edge ceiling" in rep["results"]["error"]
    code, rep = run(["random-bigraph", "--n1", "3", "--n2", "9", "--l", "9", "--m", "3",
                     "--seed", "1"], capsys)
    assert code == 0 and rep["inputs"]["edge_ceiling"] == graphs.EDGE_CEILING


def test_random_bigraph_requires_seed(capsys):
    code, _ = run(["random-bigraph", "--n1", "3", "--n2", "9", "--l", "9", "--m", "3"], capsys)
    assert code == 64


def test_infeasible_random_bigraph(capsys):
    code, _ = run(["random-bigraph", "--n1", "3", "--n2", "9", "--l", "10", "--m", "3",
                   "--seed", "1"], capsys)
    assert code == 2


def test_paper_suite(capsys):
    code, rep = run(["--paper-suite"], capsys)
    assert (code, rep["status"]) == (1, "fail")    # the non-Galois battery fails
    battery = rep["results"]["battery"]
    assert set(battery) == {"galois_example", "nongalois_example", "archimedean",
                            "good_primes", "certification", "finite_group", "tree_balls"}
    assert battery["galois_example"]["status"] == "pass"
    nongalois = battery["nongalois_example"]
    laws = ("alpha_squared_is_identity", "restricts_to_tau_on_E", "norm_equals_det",
            "anti_automorphism", "norm_conjugation")
    assert [nongalois["involution_suite"][k]["value"] for k in laws] == \
        [True, True, True, False, False]
    assert nongalois["status"] == "fail"


def test_no_subcommand_is_usage_error(capsys):
    code, _ = run([], capsys)
    assert code == 64


# ---------------------------------------------------------------------------
# verdicts: every Check can be made false (or undecided), and decides the code
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
_SPEC = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def _through(module, name, change):
    """Patch that passes the result of module.name through change."""
    def patch(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: change(real(*args)))
    return patch


def _returns(module, name, value):
    return lambda monkeypatch: monkeypatch.setattr(module, name, lambda *args: value)


def _law_fails(law):
    return _through(algebra, "involution_failures", lambda counts: {**counts, law: 1})


def _condition(**field):
    return _through(algebra, "check_theorem_conditions",
                    lambda rep: dataclasses.replace(rep, **field))


def _ball_of_swapped_degrees(monkeypatch):
    real = trees.biregular_tree_ball
    monkeypatch.setattr(trees, "biregular_tree_ball", lambda l, m, *rest: real(m, l, *rest))


def _two_k6():
    """Two copies of K_6 minus an edge, joined by two edges: 5-regular, not
    bipartite, lambda = 4.46 > 2 sqrt(4)."""
    edges = [(off + i, off + j) for off in (0, 6)
             for i, j in itertools.combinations(range(6), 2) if (i, j) != (0, 1)]
    return graphs.Graph(12, tuple(edges + [(0, 6), (1, 7)]))


_GRAPHS = {"<K_2,3>": lambda: graphs.complete_bipartite(2, 3), "<two K_6>": _two_k6}
_K23 = ["certify", "<K_2,3>"]
_NONGALOIS = ["verify-algebra", "--kind", "nongalois", "--samples", "5"]
_SUITE = ["--paper-suite"]
_LAWS = ("alpha_squared_is_identity", "restricts_to_tau_on_E", "anti_automorphism",
         "norm_conjugation", "norm_equals_det")
_SUITE_FAILS = ("anti_automorphism", "norm_conjugation")   # on the non-Galois example


def _entry(path, argv, patch=None, value=False, test_id=None):
    return pytest.param(path, argv, patch, value, id=test_id or path)


# One entry per Check path: the path (command, then keys), the argv, the
# patch, if any, and the value it gives the leaf.  A leaf that no input makes
# false is falsified by a patch, with the reason beside it.  The paper suite's
# only input is --seed, so its leaves are patched through the library call
# that each battery makes.
FALSIFIERS = [
    _entry("verify-algebra.involution_suite.alpha_squared_is_identity",
           ["verify-algebra", "--a", "2", "--samples", "5"]),
    # no input: alpha's formula restricts to tau on E, for both kinds
    _entry("verify-algebra.involution_suite.restricts_to_tau_on_E",
           ["verify-algebra", "--samples", "2"], _law_fails("restricts_to_tau_on_E")),
    _entry("verify-algebra.involution_suite.anti_automorphism", _NONGALOIS),
    _entry("verify-algebra.involution_suite.norm_conjugation", _NONGALOIS),
    # no input: the reduced-norm formula is the determinant of the matrix image
    # identically
    _entry("verify-algebra.involution_suite.norm_equals_det",
           ["verify-algebra", "--samples", "2"], _law_fails("norm_equals_det")),
    # a = pi/conj(pi) with N(pi) = 211: its only obstruction is above the witness limit
    _entry("verify-algebra.conditions.division_condition",
           ["verify-algebra", "--a", "(14+w)/(15-w)", "--samples", "1"], value=None),
    _entry("verify-algebra.conditions.unit_norm_condition",
           ["verify-algebra", "--a", "7*7", "--samples", "2"]),
    # no input: the fixed rho and tau on the fixed basis of Q(zeta_9) commute
    _entry("verify-algebra.conditions.commuting_condition",
           ["verify-algebra", "--samples", "2"], _condition(commuting_condition=False)),
    _entry("certify.certificate.def21", ["certify", "<two K_6>"]),
    _entry("certify.certificate.def22", _K23),
    _entry("certify.certificate.def23", _K23),
    # no input: the identity map of a ball onto itself is a covering
    _entry("tree.identity_covering", ["tree", "--l", "9", "--m", "3", "--radius", "2"],
           _returns(trees, "check_local_covering", False)),
    # no input: the ball is built from the closed-form counts, and its
    # level-by-level validation refuses any other; the patch builds the (m, l) ball
    _entry("tree.level_counts_match", ["tree", "--l", "9", "--m", "3", "--radius", "2"],
           _ball_of_swapped_degrees),
    # no input: reduction from level 2 to level 1 is onto for every q enumerated
    _entry("finite-group.surjective", ["finite-group", "--q", "2", "--n", "2"],
           _through(lattices, "enumerate_su3",
                    lambda rep: dataclasses.replace(rep, surjective=False))),
    # no input: the enumerated orders agree with the formula at every q enumerated
    _entry("finite-group.matches_formula", ["finite-group", "--q", "2"],
           _returns(lattices, "su3_order_formula", 0)),
    _entry("finite-group.matches_formula", ["finite-group", "--q", "2", "--n", "2"],
           _returns(lattices, "su3_order_formula", 0), test_id="finite-group.matches_formula-n2"),
    *(_entry(f"paper-suite.battery.galois_example.involution_suite.{law}", _SUITE,
             _law_fails(law)) for law in _LAWS),
    *(_entry(f"paper-suite.battery.nongalois_example.involution_suite.{law}", _SUITE,
             None if law in _SUITE_FAILS else _law_fails(law)) for law in _LAWS),
    _entry("paper-suite.battery.galois_example.conditions.division_condition", _SUITE,
           _condition(division_condition=None), value=None),
    _entry("paper-suite.battery.galois_example.conditions.unit_norm_condition", _SUITE,
           _condition(unit_norm_condition=False)),
    _entry("paper-suite.battery.galois_example.conditions.commuting_condition", _SUITE,
           _condition(commuting_condition=False)),
    # no input: the Cayley draws are special unitary exactly, by construction
    _entry("paper-suite.battery.archimedean.special_unitary_matrices", _SUITE,
           _through(algebra, "matrix_at_infinity", lambda m: 2 * m)),
    # no input: every torus point (conj(t)/t, t, 1/conj(t)) with t != 0 passes
    _entry("paper-suite.battery.archimedean.torus_points", _SUITE,
           _returns(algebra, "verify_noncompact_torus", False)),
    _entry("paper-suite.battery.good_primes.mod12_agreement", _SUITE,
           _returns(lattices, "good_primes_up_to", [2, 5, 11, 13])),
    _entry("paper-suite.battery.certification.spot_checks", _SUITE,
           _through(graphs, "certify_ramanujan",
                    lambda cert: dataclasses.replace(cert, is_ramanujan=False))),
    _entry("paper-suite.battery.finite_group.matches_formula", _SUITE,
           _returns(lattices, "su3_order_formula", 0)),
    _entry("paper-suite.battery.tree_balls.identity_covering", _SUITE,
           _returns(trees, "check_local_covering", False)),
    _entry("paper-suite.battery.tree_balls.level_counts_match", _SUITE,
           _ball_of_swapped_degrees),
]


@pytest.mark.parametrize("path, argv, patch, value", FALSIFIERS)
def test_every_verdict_can_fail(tmp_path, capsys, monkeypatch, path, argv, patch, value):
    argv = [write_graph(tmp_path, _GRAPHS[a]()) if a in _GRAPHS else a for a in argv]
    if patch:
        patch(monkeypatch)
    code, rep = run(argv, capsys)
    command, *keys = path.split(".")
    assert rep["command"] == command
    node = rep["results"]
    for key in keys:
        if "status" in node:          # a paper-suite algebra battery
            assert node["status"] == cli.STATUS[cli.VERDICT[value]]
        node = node[key]
    assert node == {"value": value, "method": node["method"]}
    # the paper suite fails whatever else holds: its non-Galois battery fails
    want = cli.EXIT_FAIL if command == "paper-suite" else cli.VERDICT[value]
    assert (code, rep["status"]) == (want, cli.STATUS[want])


def _check_paths(node, prefix):
    for key, value in node.items():
        if isinstance(value, cli.Check):
            yield f"{prefix}.{key}"
        elif isinstance(value, dict):
            yield from _check_paths(value, f"{prefix}.{key}")


def test_every_verdict_in_the_corpus_has_a_falsifier(monkeypatch):
    emitted = []
    monkeypatch.setattr(cli, "_emit", lambda command, inputs, results, *rest:
                        emitted.append((command, results)))
    for _, argv in golden._cli_cases():
        cli.main(argv)
    in_corpus = {path for command, results in emitted for path in _check_paths(results, command)}
    falsified = {entry.values[0] for entry in FALSIFIERS}
    # certify has no golden case: its graphs are files
    assert in_corpus == {path for path in falsified if not path.startswith("certify.")}


def test_exit_code_takes_the_worst_check():
    assert cli.exit_code({}) == 0
    assert cli.exit_code({"connected": cli.exact(False), "n": [False]}) == 0   # facts
    assert cli.exit_code({"a": cli.Check(True), "b": {"c": cli.Check(None)}}) == 2
    assert cli.exit_code({"a": {"b": cli.Check(False)}, "c": cli.Check(None)}) == 1
    with pytest.raises(TypeError):
        cli.Check(1)


def _bare_booleans(node, path):
    if isinstance(node, bool):
        yield path
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _bare_booleans(value, f"{path}[{i}]")
    elif isinstance(node, dict) and set(node) != {"value", "method"}:
        for key, value in node.items():
            yield from _bare_booleans(value, f"{path}.{key}")


def test_golden_reports_tag_every_verdict():
    corpus = json.loads((GOLDEN / "cli_reports.json").read_text())
    for name, report in corpus.items():
        jsonschema.validate({**report, "duration_seconds": 0.0}, REPORT_SCHEMA)
        bare = set(_bare_booleans(report["results"], "results"))
        assert bare <= {"results.certificate.is_ramanujan"}, (name, bare)


def test_schema_rejects_an_untagged_verdict(capsys):
    _, rep = run(["tree", "--l", "9", "--m", "3", "--radius", "2"], capsys)
    for results in ({**rep["results"], "identity_covering": True},
                    {"battery": {"finite_group": {"matches_formula": True}}}):  # the suite's, before
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**rep, "results": results}, REPORT_SCHEMA)


# ---------------------------------------------------------------------------
# fuzz: every argument vector gets one schema-valid report and a documented code
# ---------------------------------------------------------------------------

# tokens parse_quad accepts, then tokens it rejects
_QUAD_TOKENS = ["0", "1", "2", "7", "w", "omega", "sqrt_m3", "zeta3", "+", "-", "*", "/",
                "(", ")", "**", "1.5", "True", "x", "%", "[1]"]
_EXPRESSIONS = st.lists(st.sampled_from(_QUAD_TOKENS), min_size=1, max_size=6).map("".join)
_ARGVS = st.one_of(
    st.tuples(st.sampled_from(["galois", "nongalois"]), st.sampled_from(["--a", "--b"]),
              _EXPRESSIONS, st.integers(-2, 2)).map(
        lambda t: ["verify-algebra", "--kind", t[0], t[1], t[2], "--samples", str(t[3])]),
    st.tuples(st.integers(-1, 6), st.integers(-1, 6), st.integers(-2, 3)).map(
        lambda t: ["tree", "--l", str(t[0]), "--m", str(t[1]), "--radius", str(t[2])]),
    st.integers(-5, 80).map(lambda n: ["primes", "--up-to", str(n)]),
    # level n = 2 is left out: its enumeration is the slow one
    st.tuples(st.integers(-2, 8), st.sampled_from([-1, 0, 1, 3])).map(
        lambda t: ["finite-group", "--q", str(t[0]), "--n", str(t[1])]),
)


def run_quietly(argv):
    """cli.main(argv) -> (code, report), the report validated against the schema."""
    out = io.StringIO()     # capsys is function-scoped, which hypothesis refuses
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report = json.loads(out.getvalue())     # raises unless stdout is one document
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["exit_code"] == code and code in (0, 1, 2, 64), argv
    return code, report


@settings(max_examples=100, deadline=None)
@given(_ARGVS)
def test_fuzzed_arguments_get_one_report(argv):
    _, report = run_quietly(argv)
    assert report["command"] != "parse-error", argv   # nothing here was read from a file


# small well-formed graphs: stars, K_1, isolated vertices, disconnected and
# complete bipartite graphs, and any simple graph on up to 7 vertices
_VALID_GRAPHS = st.one_of(
    st.integers(1, 6).map(lambda c: graphs.complete_bipartite(1, c)),
    st.integers(0, 4).map(lambda n: graphs.Graph(n, ())),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda t: graphs.complete_bipartite(*t)),
    st.integers(3, 6).map(lambda n: graphs.Graph(
        2 * n, tuple((i, (i + 1) % n) for i in range(n))
        + tuple((n + i, n + (i + 1) % n) for i in range(n)))),
    st.integers(2, 7).flatmap(lambda n: st.sets(
        st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=12).map(
        lambda es: graphs.Graph(n, tuple(es)))),
)


def _with_parts(g):
    """g's document, with parts from its BFS colouring when g is bipartite."""
    doc = graphs.graph_to_json(g)
    coloring = graphs.analyze_structure(g).bipartition
    if coloring is not None:
        doc["parts"] = list(coloring)
    return doc


# each turns a well-formed document into a malformed one
_CORRUPTIONS = {
    "n-float": lambda d: {**d, "n": d["n"] + 0.5},
    "n-negative": lambda d: {**d, "n": -1},
    "n-missing": lambda d: {"edges": d["edges"]},
    "edge-float": lambda d: {**d, "edges": d["edges"] + [[0, 1.5]]},
    "edge-bool": lambda d: {**d, "edges": d["edges"] + [[True, 0]]},
    "edge-string": lambda d: {**d, "edges": d["edges"] + [["0", 1]]},
    "edge-arity": lambda d: {**d, "edges": d["edges"] + [[0, 1, 2]]},
    "loop": lambda d: {**d, "edges": d["edges"] + [[d["n"] - 1, d["n"] - 1]]},
    "duplicate": lambda d: {**d, "edges": d["edges"] + [[0, 1], [1, 0]]},
    "out-of-range": lambda d: {**d, "edges": d["edges"] + [[0, d["n"]]]},
    "negative-vertex": lambda d: {**d, "edges": d["edges"] + [[-1, 0]]},
    "parts-length": lambda d: {**d, "parts": [0] * (d["n"] + 1)},
    "parts-value": lambda d: {**d, "parts": [2] * (d["n"] or 1)},
    "parts-string": lambda d: {**d, "parts": "01"},
    "n-bool": lambda d: {**d, "n": True},
    "parts-bool": lambda d: {**d, "parts": [False] * (d["n"] or 1)},
    "edge-object": lambda d: {**d, "edges": d["edges"] + [{"a": 0, "b": 1}]},
    "edges-object": lambda d: {**d, "edges": {}},
    "not-an-object": lambda d: [d["n"], d["edges"]],
}


@settings(max_examples=150, deadline=None)
@given(_VALID_GRAPHS.map(_with_parts) | _VALID_GRAPHS.map(graphs.graph_to_json),
       st.sampled_from([None, "not-json", *_CORRUPTIONS]),
       st.sampled_from(["certify", "spectrum", "expansion"]))
def test_fuzzed_graph_files_get_one_report(doc, corruption, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            if corruption == "not-json":
                fh.write(json.dumps(doc)[:-1])
            else:
                json.dump(_CORRUPTIONS[corruption](doc) if corruption else doc, fh)
        _, report = run_quietly([command, path])
    if corruption is None:
        jsonschema.validate(doc, GRAPH_SCHEMA)
    assert (report["command"] == "parse-error") == (corruption is not None), (doc, corruption)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(2, 8), st.integers(2, 2 ** 70)),
       st.sets(st.sampled_from(list(itertools.combinations(range(8), 2))), max_size=6))
@example(2 ** 63, set())
@example(3_000_000_000, {(0, 1)})
def test_certify_refuses_too_few_edges_from_the_counts(n, edges):
    # fewer than n - 1 edges cannot connect n vertices; a huge n must not be
    # walked vertex by vertex (it crashed with OverflowError or MemoryError)
    edges = sorted(e for e in edges if e[1] < n)
    assume(len(edges) < n - 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "edges": edges}, fh)
        code, report = run_quietly(["certify", path])
    assert code == 2 and report["command"] == "precondition-error", (n, edges)
    assert report["results"]["error"] == "certification requires a connected graph"


@settings(max_examples=60, deadline=None)
@given(st.integers(graphs.SPECTRUM_CEILING + 1, 2 ** 70),
       st.sets(st.sampled_from(list(itertools.combinations(range(8), 2))), max_size=6),
       st.sampled_from(["spectrum", "expansion"]))
@example(2 ** 63, set(), "spectrum")
@example(2 ** 63, set(), "expansion")
def test_huge_graph_files_are_refused_at_the_ceiling(n, edges, command):
    # both commands list or scan every vertex, so a huge n is refused before
    # any per-vertex work, and the report states the ceiling that applied
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "edges": sorted(edges)}, fh)
        code, report = run_quietly([command, path])
    assert code == 2 and report["command"] == "precondition-error", (n, edges, command)
    ceiling = graphs.SPECTRUM_CEILING if command == "spectrum" else graphs.DEFAULT_EXPANSION_CEILING
    assert report["inputs"]["ceiling"] == ceiling
    assert "exceeds" in report["results"]["error"]


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(-1, 12)] * 4, st.integers(-2, 5)))
def test_fuzzed_random_bigraph_sizes_get_one_report(values):
    argv = ["random-bigraph"]
    for name, v in zip(("--n1", "--n2", "--l", "--m", "--seed"), values):
        argv += [name, str(v)]
    _, report = run_quietly(argv)
    assert report["command"] in ("random-bigraph", "precondition-error"), argv

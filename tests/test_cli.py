"""CLI contract tests: exit codes, report schema, determinism."""

import json
from importlib import resources

import jsonschema
import pytest

from ramanujan_bigraphs import cli, graphs

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


def test_verify_algebra_precision_cap(capsys):
    # v_7(a^2) = 40: the witness valuation needs a cap above 40
    a = "*".join(["7"] * 20)
    code, rep = run(["verify-algebra", "--a", a, "--samples", "2"], capsys)
    assert (code, rep["status"]) == (1, "fail")       # the involution laws fail
    assert "conditions" not in rep["results"]
    assert any("--precision 8" in note for note in rep["notes"])
    code, rep = run(["verify-algebra", "--a", a, "--samples", "2", "--precision", "41"], capsys)
    assert code == 1
    conds = rep["results"]["conditions"]
    assert conds["division_condition"]["value"] is True
    assert conds["unit_norm_condition"]["value"] is False


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


def test_certify_disagreeing_windows_is_precondition(tmp_path, capsys):
    # at tolerance 0.2, lambda(K_2,3) = 0 fails def22 but passes def23
    k23 = write_graph(tmp_path, graphs.complete_bipartite(2, 3))
    code, rep = run(["certify", k23, "--tolerance", "0.2"], capsys)
    assert (code, rep["command"]) == (2, "precondition-error")
    assert "def22 and def23" in rep["results"]["error"]


def test_reports_name_the_eigenproblem(tmp_path, capsys):
    bigraph = write_graph(tmp_path, graphs.random_biregular(60, 180, 9, 3, seed=7), "b.json")
    odd = write_graph(tmp_path, graphs.cycle(7), "c7.json")
    for path, shape in ((bigraph, [60, 180]), (odd, [7, 7])):
        for command in ("certify", "spectrum"):
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


def test_tree(capsys):
    code, rep = run(["tree", "--l", "9", "--m", "3", "--radius", "2"], capsys)
    assert code == 0
    assert rep["results"]["vertices"]["value"] == 28
    assert rep["results"]["level_counts"]["value"] == [1, 9, 18]


def test_primes(capsys):
    code, rep = run(["primes", "--up-to", "30"], capsys)
    assert code == 0
    assert rep["results"]["good_primes"]["value"] == [2, 5, 11, 17, 23, 29]


def test_finite_group_and_env_ceiling(capsys, monkeypatch):
    code, rep = run(["finite-group", "--q", "2"], capsys)
    assert code == 0 and rep["results"]["order"]["value"] == 216
    assert rep["results"]["order"]["method"] == "enumerated"
    monkeypatch.setenv(cli.ENUM_CEILING_ENV, "10")
    code, _ = run(["finite-group", "--q", "2"], capsys)
    assert code == 2


def test_random_bigraph_deterministic(capsys):
    args = ["random-bigraph", "--n1", "3", "--n2", "9", "--l", "9", "--m", "3",
            "--seed", "11"]
    code1, rep1 = run(args, capsys)
    code2, rep2 = run(args, capsys)
    assert code1 == code2 == 0
    assert rep1["results"]["graph"] == rep2["results"]["graph"]
    jsonschema.validate(rep1["results"]["graph"], GRAPH_SCHEMA)


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

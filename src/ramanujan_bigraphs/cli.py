"""Command-line surface.

Every command emits a single JSON Report on stdout and uses the stable exit
codes 0 (pass), 1 (fail), 2 (precondition violated / inconclusive), and
64 (usage or parse error).  All randomized commands require an explicit
--seed so runs are reproducible.  Numeric claims in reports carry method
tags: exact | enumerated | formula | floating(tolerance).

The enumeration ceiling for finite-group commands can be overridden with
the environment variable RAMANUJAN_BIGRAPHS_ENUM_CEILING.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import sys
import time

import numpy as np

from . import algebra, graphs, lattices, trees
from .numberfield import (
    PrecisionCapError,
    QuadElem,
    ZETA3_E,
    local_norm_obstruction,
    quad_from_sqrt3_basis,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
STATUS = {EXIT_PASS: "pass", EXIT_FAIL: "fail", EXIT_PRECONDITION: "inconclusive"}
# exit code of a check that holds (True), fails (False) or is undecided (None)
VERDICT = {True: EXIT_PASS, False: EXIT_FAIL, None: EXIT_PRECONDITION}

ENUM_CEILING_ENV = "RAMANUJAN_BIGRAPHS_ENUM_CEILING"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64, not argparse's default 2
        raise UsageError(message)


def tag(value, method):
    return {"value": value, "method": method}


def exact(value):
    return tag(value, "exact")


def floating(value, tolerance):
    return tag(value, f"floating({tolerance:g})")


def combine(*codes: int) -> int:
    """Exit code of a report made of several verdicts: fail beats
    inconclusive, and inconclusive beats pass."""
    return max(codes, key=(EXIT_PASS, EXIT_PRECONDITION, EXIT_FAIL).index)


# ---------------------------------------------------------------------------
# --a / --b expression parsing: integers, fractions, omega (w), sqrt_m3, zeta3
# ---------------------------------------------------------------------------

_QUAD_NAMES = {
    "omega": QuadElem(0, 1),
    "w": QuadElem(0, 1),
    "sqrt_m3": quad_from_sqrt3_basis(0, 1),
    "zeta3": ZETA3_E,
}


def parse_quad(expr: str) -> QuadElem:
    """Parse an element of E from a small arithmetic expression, e.g.
    '1', '3/2', '(2+sqrt_m3)/(2-sqrt_m3)', '2*zeta3'."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return QuadElem(node.value)
        if isinstance(node, ast.Name) and node.id in _QUAD_NAMES:
            return _QUAD_NAMES[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            return a / b
        raise UsageError(f"unsupported expression element: {ast.dump(node)}")

    try:
        return ev(ast.parse(expr, mode="eval"))
    except (SyntaxError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse field element {expr!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Command implementations: each returns (results_dict, exit_code, notes)
# ---------------------------------------------------------------------------

# report key of each involution law -> its key in algebra.involution_failures
_INVOLUTION_LAWS = {
    "alpha_squared_is_identity": "alpha_sq",
    "restricts_to_tau_on_E": "tau",
    "anti_automorphism": "anti",
    "norm_conjugation": "norm_conj",
    "norm_equals_det": "norm_det",
}


def cmd_verify_algebra(args):
    if args.kind == "galois":
        if args.a is not None:
            params = algebra.AlgebraParams(algebra.GALOIS, parse_quad(args.a))
        else:
            params = algebra.example_galois_params()
    elif args.b is not None:
        b = parse_quad(args.b)
        params = algebra.AlgebraParams(algebra.NONGALOIS, b.conj(), b)
    else:
        params = algebra.example_nongalois_params()
    return _verify_algebra(params, args.samples, args.seed, args.witness_limit, args.precision)


def _verify_algebra(params, samples: int, seed: int, witness_limit: int, precision: int):
    failures = algebra.involution_failures(params, samples, random.Random(seed))
    suite = {"samples": exact(samples)}
    suite.update((key, exact(failures[law] == 0)) for key, law in _INVOLUTION_LAWS.items())
    results = {"kind": params.kind, "involution_suite": suite}
    failed = [key for key, law in _INVOLUTION_LAWS.items() if failures[law]]
    notes = [f"involution laws that fail: {', '.join(failed)}"] if failed else []
    code = VERDICT[not failed]
    if params.kind == algebra.GALOIS:
        try:
            rep = algebra.check_theorem_conditions(params, witness_limit, precision)
        except PrecisionCapError as exc:
            notes.append(f"condition (i) inconclusive at --precision {precision}: {exc}")
            return results, combine(code, EXIT_PRECONDITION), notes
        results["conditions"] = {
            "division_condition": exact(rep.division_condition),
            "unit_norm_condition": exact(rep.unit_norm_condition),
            "commuting_condition": exact(rep.commuting_condition),
            "witness_prime_a": exact(rep.witness_prime_a),
            "witness_prime_a2": exact(rep.witness_prime_a2),
            "residues_a": exact(sorted(rep.residues_a) if rep.residues_a else None),
            "residues_a2": exact(sorted(rep.residues_a2) if rep.residues_a2 else None),
            "searched_below": exact(rep.searched_below),
        }
        if rep.witness_prime_a is not None:
            obs = local_norm_obstruction(params.a, rep.witness_prime_a, precision)
            results["obstruction_at_witness"] = {
                "prime": exact(obs.prime),
                "valuations": exact(list(obs.valuations)),
                "valuations_mod_3": exact(sorted(obs.valuations_mod_3)),
                "obstructed": exact(obs.obstructed),
            }
        if rep.division_condition is None:
            notes.append(
                f"condition (i) inconclusive: no witness prime below {rep.searched_below}"
            )
        code = combine(code, *(
            VERDICT[c]
            for c in (rep.division_condition, rep.unit_norm_condition, rep.commuting_condition)
        ))
    return results, code, notes


def _certificate_dict(cert: graphs.RamanujanCertificate):
    tol = cert.tolerance
    d = {
        "graph_class": cert.graph_class,
        "degrees": exact(list(cert.degrees)),
        "lambda": floating(cert.lam, tol),
        "lower_bound": floating(cert.lower_bound, tol),
        "upper_bound": floating(cert.upper_bound, tol),
        "is_ramanujan": cert.is_ramanujan,
        "margins": {k: floating(v, tol) for k, v in cert.margins.items()},
    }
    for name, verdict in (("def21", cert.def21), ("def22", cert.def22), ("def23", cert.def23)):
        if verdict is not None:
            d[name] = floating(verdict, tol)
    return d


def cmd_certify(args):
    g = graphs.load_graph(args.graph)
    cert = graphs.certify_ramanujan(g, args.tolerance)
    results = {"certificate": _certificate_dict(cert),
               "eigenproblem": exact(list(cert.eigenproblem))}
    if args.format == "dot":
        results["graph_dot"] = graphs.to_dot(g)
    return results, EXIT_PASS if cert.is_ramanujan else EXIT_FAIL, []


def cmd_spectrum(args):
    g = graphs.load_graph(args.graph)
    rep = graphs.analyze_structure(g)
    s = graphs._spectrum(g, rep.bipartition, args.tolerance)
    results = {
        "eigenvalues": floating(list(s.values), s.tolerance),
        "eigenproblem": exact(list(s.eigenproblem)),
        "connected": exact(rep.connected),
        "bipartite": exact(rep.bipartition is not None),
    }
    if rep.profile is not None and rep.connected:
        results["lambda"] = floating(graphs.lambda_of(s, rep.profile), s.tolerance)
    return results, EXIT_PASS, []


def cmd_expansion(args):
    g = graphs.load_graph(args.graph)
    rep = graphs.expansion_coefficient(g, args.ceiling)
    results = {
        "c": exact(str(rep.c)),
        "two_c": exact(str(rep.two_c)),
        "minimizing_subset": exact(list(rep.minimizing_subset)),
    }
    if rep.lam is not None:
        results["lambda"] = floating(rep.lam, graphs.DEFAULT_TOLERANCE)
    if rep.one_minus_lambda_over_k is not None:
        results["one_minus_lambda_over_k"] = floating(
            rep.one_minus_lambda_over_k, graphs.DEFAULT_TOLERANCE
        )
    return results, EXIT_PASS, []


def cmd_tree(args):
    ball = trees.biregular_tree_ball(args.l, args.m, args.radius, args.root_side, args.ceiling)
    if args.out:
        graphs.save_graph(ball.graph, args.out)
    results = {
        "vertices": exact(ball.graph.n),
        "edges": exact(len(ball.graph.edges)),
        "level_counts": exact(list(ball.level_counts)),
        "closed_form_counts": exact(
            trees.level_counts_closed_form(args.l, args.m, args.radius, args.root_side)
        ),
        "identity_covering": exact(
            trees.check_local_covering(
                trees.CoveringCandidate(ball, ball.graph, {v: v for v in range(ball.graph.n)})
            )
        ),
    }
    return results, EXIT_PASS, []


def cmd_primes(args):
    primes = lattices.good_primes_up_to(args.up_to)
    classes = {
        str(p): exact(lattices.classify_prime(p).cls)
        for p in range(2, min(args.up_to, 50) + 1)
        if lattices.is_prime(p)
    }
    return {"good_primes": exact(primes), "classification": classes}, EXIT_PASS, []


def cmd_finite_group(args):
    ceiling = int(os.environ.get(ENUM_CEILING_ENV, args.ceiling))
    rep = lattices.enumerate_su3(args.q, args.n, ceiling)
    results = rep.as_dict()
    results["formula_order_level1"] = tag(lattices.su3_order_formula(args.q), "formula")
    return results, EXIT_PASS, []


def cmd_random_bigraph(args):
    g = graphs.random_biregular(args.n1, args.n2, args.l, args.m, args.seed)
    doc = graphs.graph_to_json(g)
    if args.out:
        graphs.save_graph(g, args.out)
    rep = graphs.analyze_structure(g)
    results = {
        "graph": doc,
        "connected": exact(rep.connected),
        "profile": exact(
            [rep.profile.n1, rep.profile.n2, rep.profile.l, rep.profile.m]
            if isinstance(rep.profile, graphs.BiregularProfile)
            else None
        ),
    }
    return results, EXIT_PASS, []


def cmd_paper_suite(args):
    """Condensed verification battery mirroring the acceptance criteria."""
    battery = {}
    notes = []
    codes = []

    # 1-2. built-in example conditions and involution suite, both kinds
    for name, params, seed in (
        ("galois_example", algebra.example_galois_params(), args.seed),
        ("nongalois_example", algebra.example_nongalois_params(), args.seed + 1),
    ):
        res, code, n = _verify_algebra(params, 100, seed, 200, 8)
        battery[name] = {"status": STATUS[code], **res}
        notes.extend(n)
        codes.append(code)

    # 3. archimedean signature
    params = algebra.example_galois_params()
    rng = random.Random(args.seed + 2)
    arch_ok = True
    for _ in range(20):
        d = algebra.random_special_unitary(params, rng)
        m = algebra.matrix_at_infinity(d)
        if not (
            np.max(np.abs(m.conj().T @ m - np.eye(3))) < 1e-10
            and abs(np.linalg.det(m) - 1) < 1e-10
        ):
            arch_ok = False
    torus_ok = all(
        algebra.verify_noncompact_torus(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0)
        for _ in range(50)
    )
    battery["archimedean"] = {
        "special_unitary_matrices": floating(arch_ok, 1e-10),
        "torus_points": floating(torus_ok, 1e-10),
    }
    codes.append(VERDICT[arch_ok and torus_ok])

    # 4. good primes
    primes_ok = lattices.good_primes_up_to(100) == [
        p for p in range(2, 101)
        if lattices.is_prime(p) and (p == 2 or (p != 3 and p % 12 in (5, 11)))
    ]
    battery["good_primes"] = {"mod12_agreement": exact(primes_ok)}
    codes.append(VERDICT[primes_ok])

    # 5. certification spot checks
    cert_ok = (
        all(graphs.certify_ramanujan(graphs.complete_bipartite(k, k)).is_ramanujan
            for k in range(2, 9))
        and not graphs.certify_ramanujan(graphs.complete_bipartite(2, 3)).is_ramanujan
        and all(graphs.certify_ramanujan(graphs.cycle(2 * n)).is_ramanujan
                for n in range(2, 17))
    )
    battery["certification"] = {"spot_checks": floating(cert_ok, 1e-9)}
    codes.append(VERDICT[cert_ok])

    # 7. finite group (q = 2, level 1 only, for speed)
    grp = lattices.enumerate_su3(2, 1)
    grp_ok = grp.order == 216 == lattices.su3_order_formula(2)
    battery["finite_group"] = {"order": tag(grp.order, "enumerated"), "matches_formula": grp_ok}
    codes.append(VERDICT[grp_ok])

    # 8. tree balls
    ball = trees.biregular_tree_ball(9, 3, 4)
    tree_ok = list(ball.level_counts) == trees.level_counts_closed_form(9, 3, 4)
    battery["tree_balls"] = {"level_counts_match": exact(tree_ok)}
    codes.append(VERDICT[tree_ok])

    return {"battery": battery}, combine(*codes), notes


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="ramanujan-bigraphs", description=__doc__)
    parser.add_argument("--paper-suite", action="store_true",
                        help="run the condensed verification battery")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the paper suite")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify-algebra", help="construction conditions + involution suite")
    p.add_argument("--kind", choices=["galois", "nongalois"], default="galois")
    p.add_argument("--a", help="structure constant in E (galois kind), e.g. '(2+sqrt_m3)/(2-sqrt_m3)'")
    p.add_argument("--b", help="defining constant in E (nongalois kind), e.g. '2*zeta3'")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--witness-limit", type=int, default=200)
    p.add_argument("--precision", type=int, default=8)
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("certify", help="Ramanujan certification of a graph file")
    p.add_argument("graph")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--tolerance", type=float, default=graphs.DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("spectrum", help="adjacency spectrum of a graph file")
    p.add_argument("graph")
    p.add_argument("--tolerance", type=float, default=graphs.DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("expansion", help="exact expansion coefficient (brute force)")
    p.add_argument("graph")
    p.add_argument("--ceiling", type=int, default=graphs.DEFAULT_EXPANSION_CEILING)
    p.set_defaults(func=cmd_expansion)

    p = sub.add_parser("tree", help="biregular tree ball")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--root-side", choices=["l", "m"], default="l")
    p.add_argument("--ceiling", type=int, default=trees.DEFAULT_TREE_CEILING)
    p.add_argument("--out", help="write the ball as a graph JSON file")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("primes", help="good (inert) primes")
    p.add_argument("--up-to", type=int, required=True)
    p.set_defaults(func=cmd_primes)

    p = sub.add_parser("finite-group", help="enumerate SU3 over a residue ring")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--ceiling", type=int, default=lattices.DEFAULT_ENUM_CEILING)
    p.set_defaults(func=cmd_finite_group)

    p = sub.add_parser("random-bigraph", help="seeded random biregular bipartite graph")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write the graph as a JSON file")
    p.set_defaults(func=cmd_random_bigraph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    start = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if args.paper_suite:
            command = "paper-suite"
            results, code, notes = cmd_paper_suite(args)
        elif getattr(args, "command", None):
            command = args.command
            results, code, notes = args.func(args)
        else:
            raise UsageError("a subcommand or --paper-suite is required")
        inputs = {
            k: v for k, v in vars(args).items() if k not in ("func", "paper_suite") and v is not None
        }
    except UsageError as exc:
        _emit("usage-error", {}, {"error": str(exc)}, EXIT_USAGE, "error", [], start)
        return EXIT_USAGE
    except (graphs.GraphClassError, graphs.SpectralStructureError, trees.GraphClassError,
            lattices.LatticeError) as exc:
        _emit("precondition-error", {}, {"error": str(exc)}, EXIT_PRECONDITION, "error", [], start)
        return EXIT_PRECONDITION
    except (graphs.GraphError, json.JSONDecodeError, OSError, ValueError) as exc:
        _emit("parse-error", {}, {"error": str(exc)}, EXIT_USAGE, "error", [], start)
        return EXIT_USAGE
    _emit(command, inputs, results, code, STATUS[code], notes, start)
    return code


def _emit(command, inputs, results, code, status, notes, start) -> None:
    report = {
        "command": command,
        "inputs": {k: repr(v) if not isinstance(v, (int, float, str, bool, type(None))) else v
                   for k, v in inputs.items()},
        "results": results,
        "duration_seconds": time.perf_counter() - start,
        "exit_code": code,
        "status": status,
    }
    if notes:
        report["notes"] = notes
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

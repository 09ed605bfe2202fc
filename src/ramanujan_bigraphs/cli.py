"""Command-line surface.

Every command emits a single JSON Report on stdout and uses the stable exit
codes 0 (pass), 1 (fail), 2 (precondition violated / inconclusive),
64 (usage or parse error), and 70 (internal error: an unexpected exception,
reported as an internal-error report, its traceback on stderr).  All
randomized commands require an explicit --seed so runs are reproducible.
Numeric claims in reports carry method tags: exact | enumerated | formula |
floating(tolerance).

Each verdict in a report is a Check, a tagged value of True, False or None;
the exit code is the worst Check in the results, derived once in main, and
the other tagged values are facts that decide nothing.

The brute-force commands (expansion, tree, finite-group) take their scan
ceiling as --ceiling, refuse a run above it with exit 2, and the report's
inputs record the ceiling that applied.  spectrum, random-bigraph (on n1 + n2)
and primes do the same with fixed ceilings, graphs.SPECTRUM_CEILING and
lattices.PRIMES_CEILING, and random-bigraph with graphs.EDGE_CEILING on its
n1 * l edges too.  Options that do not apply to the chosen command (--a
with --kind nongalois, --b with --kind galois, --paper-suite or the top-level
--seed with a subcommand) are usage errors, not ignored, and so are numeric
options out of range (--samples or --witness-limit below 1, --radius below 0,
tree's --l or --m below 2, --up-to below 2, a zero --a or --b, a --tolerance
below 0 or not finite).
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import operator
import random
import re
import sys
import time
import traceback

import numpy as np

from . import algebra, graphs, lattices, trees
from .numberfield import QuadElem, ZETA3_E, local_norm_obstruction, quad_from_sqrt3_basis

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70      # sysexits EX_SOFTWARE: a bug, never a verdict
STATUS = {EXIT_PASS: "pass", EXIT_FAIL: "fail", EXIT_PRECONDITION: "inconclusive"}
# exit code of a check that holds (True), fails (False) or is undecided (None)
VERDICT = {True: EXIT_PASS, False: EXIT_FAIL, None: EXIT_PRECONDITION}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -1 and -.5 for numbers but -1e-9 for an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # exit 64, not argparse's default 2
        raise UsageError(message)


def tag(value, method):
    return {"value": value, "method": method}


def exact(value):
    return tag(value, "exact")


def floating(value, tolerance, record=tag):
    return record(value, f"floating({tolerance:g})")


class Check(dict):
    """A verdict: the tagged value {value, method} with value True (holds),
    False (fails) or None (undecided), so it serialises as it is."""

    def __init__(self, value, method="exact"):
        if value is not None and type(value) is not bool:
            raise TypeError(f"a check's value is True, False or None, not {value!r}")
        super().__init__(value=value, method=method)


def exit_code(results) -> int:
    """Exit code of the worst Check anywhere in ``results``: fail beats
    inconclusive, inconclusive beats pass, and results with no check pass."""
    if isinstance(results, Check):
        return VERDICT[results["value"]]
    if "method" in results:     # a tagged fact holds no check
        return EXIT_PASS
    return max((exit_code(v) for v in results.values() if isinstance(v, dict)),
               key=(EXIT_PASS, EXIT_PRECONDITION, EXIT_FAIL).index, default=EXIT_PASS)


# ---------------------------------------------------------------------------
# --a / --b expression parsing: integers, fractions, omega (w), sqrt_m3, zeta3
# ---------------------------------------------------------------------------

_QUAD_NAMES = {
    "omega": QuadElem(0, 1),
    "w": QuadElem(0, 1),
    "sqrt_m3": quad_from_sqrt3_basis(0, 1),
    "zeta3": ZETA3_E,
}
_QUAD_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
             ast.Div: operator.truediv}


def parse_quad(expr: str) -> QuadElem:
    """Parse an element of E from a small arithmetic expression, e.g.
    '1', '3/2', '(2+sqrt_m3)/(2-sqrt_m3)', '2*zeta3'."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and type(node.value) is int:   # not bool
            return QuadElem(node.value)
        if isinstance(node, ast.Name) and node.id in _QUAD_NAMES:
            return _QUAD_NAMES[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and type(node.op) in _QUAD_OPS:
            return _QUAD_OPS[type(node.op)](ev(node.left), ev(node.right))
        raise UsageError(f"unsupported expression element: {ast.dump(node)}")

    try:
        return ev(ast.parse(expr, mode="eval"))
    except (SyntaxError, ZeroDivisionError, RecursionError) as exc:   # too deeply nested
        raise UsageError(f"cannot parse field element {expr!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Command implementations: each returns (results_dict, notes)
# ---------------------------------------------------------------------------

def cmd_verify_algebra(args):
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.witness_limit < 1:
        raise UsageError("--witness-limit must be at least 1")
    if args.kind == "galois":
        if args.b is not None:
            raise UsageError("--b applies to --kind nongalois only")
        if args.a is not None:
            params = algebra.AlgebraParams(algebra.GALOIS, _nonzero_quad("--a", args.a))
        else:
            params = algebra.example_galois_params()
    elif args.a is not None:
        raise UsageError("--a applies to --kind galois only")
    elif args.b is not None:
        b = _nonzero_quad("--b", args.b)
        params = algebra.AlgebraParams(algebra.NONGALOIS, b.conj(), b)
    else:
        params = algebra.example_nongalois_params()
    failures = algebra.involution_failures(params, args.samples, random.Random(args.seed))
    suite = {"samples": exact(args.samples)}
    suite.update((law, Check(count == 0)) for law, count in failures.items())
    results = {"kind": params.kind, "involution_suite": suite}
    failed = [law for law, count in failures.items() if count]
    notes = [f"involution laws that fail: {', '.join(failed)}"] if failed else []
    if params.kind == algebra.GALOIS:
        rep = algebra.check_theorem_conditions(params, args.witness_limit)
        results["conditions"] = {
            "division_condition": Check(rep.division_condition),
            "unit_norm_condition": Check(rep.unit_norm_condition),
            "commuting_condition": Check(rep.commuting_condition),
            "witness_prime_a": exact(rep.witness_prime_a),
            "witness_prime_a2": exact(rep.witness_prime_a2),
            "residues_a": exact(sorted(rep.residues_a) if rep.residues_a else None),
            "residues_a2": exact(sorted(rep.residues_a2) if rep.residues_a2 else None),
            "searched_below": exact(rep.searched_below),
        }
        if rep.witness_prime_a is not None:
            obs = local_norm_obstruction(params.a, rep.witness_prime_a)
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
    return results, notes


def _nonzero_quad(option: str, expr: str) -> QuadElem:
    value = parse_quad(expr)
    if not value:
        raise UsageError(f"{option} must be nonzero")
    return value


def _certificate_dict(cert: graphs.RamanujanCertificate):
    tol = cert.tolerance
    d = {
        "graph_class": cert.graph_class,
        "degrees": exact(list(cert.degrees)),
        "lambda": floating(cert.lam, tol),
        "lower_bound": floating(cert.lower_bound, tol),
        "upper_bound": floating(cert.upper_bound, tol),
        "is_ramanujan": cert.is_ramanujan,    # repeats the def21 and def22 checks
        "margins": {k: floating(v, tol) for k, v in cert.margins.items()},
    }
    for name, verdict in (("def21", cert.def21), ("def22", cert.def22), ("def23", cert.def23)):
        if verdict is not None:
            d[name] = floating(verdict, tol, Check)
    return d


def _tolerance(args) -> float:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise UsageError("--tolerance must be finite and at least 0")
    return args.tolerance


def cmd_certify(args):
    g = graphs.load_graph(args.graph)
    cert = graphs.certify_ramanujan(g, _tolerance(args))
    results = {"certificate": _certificate_dict(cert),
               "eigenproblem": exact(list(cert.eigenproblem))}
    if args.format == "dot":
        results["graph_dot"] = graphs.to_dot(g)
    return results, []


def cmd_spectrum(args):
    g = graphs.load_graph(args.graph)
    s = graphs.spectrum(g, _tolerance(args))     # refuses n above its ceiling first
    rep = graphs.analyze_structure(g)
    results = {
        "eigenvalues": floating(list(s.values), s.tolerance),
        "eigenproblem": exact(list(s.eigenproblem)),
        "connected": exact(rep.connected),
        "bipartite": exact(rep.bipartition is not None),
    }
    if rep.profile is not None and rep.connected:
        results["lambda"] = floating(graphs.lambda_of(s, rep.profile), s.tolerance)
    return results, []


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
    return results, []


def cmd_tree(args):
    if args.radius < 0:
        raise UsageError("--radius must be at least 0")
    if min(args.l, args.m) < 2:
        raise UsageError("--l and --m must be at least 2")
    ball = trees.biregular_tree_ball(args.l, args.m, args.radius, args.root_side, args.ceiling)
    if args.out:
        graphs.save_graph(ball.graph, args.out)
    closed_form = trees.level_counts_closed_form(args.l, args.m, args.radius, args.root_side)
    covering = trees.check_local_covering(
        trees.CoveringCandidate(ball, ball.graph, {v: v for v in range(ball.graph.n)})
    )
    return {
        "vertices": exact(ball.graph.n),
        "edges": exact(len(ball.graph.edges)),
        "level_counts": exact(list(ball.level_counts)),
        "closed_form_counts": exact(closed_form),
        "identity_covering": Check(covering),
        "level_counts_match": Check(list(ball.level_counts) == closed_form),
    }, []


def cmd_primes(args):
    if args.up_to < 2:
        raise UsageError("--up-to must be at least 2")
    primes = lattices.good_primes_up_to(args.up_to)      # refuses a bound above its ceiling
    classes = {
        str(p): exact(lattices.classify_prime(p).cls)
        for p in range(2, min(args.up_to, 50) + 1)
        if lattices.is_prime(p)
    }
    return {"good_primes": exact(primes), "classification": classes}, []


def cmd_finite_group(args):
    rep = lattices.enumerate_su3(args.q, args.n, args.ceiling)
    results = {"q": rep.q, "n": rep.n, "order": tag(rep.order, "enumerated")}
    if rep.n == 2:
        results.update(level1_order=tag(rep.level1_order, "enumerated"),
                       kernel_size=tag(rep.kernel_size, "enumerated"),
                       surjective=Check(rep.surjective, "enumerated"))
    formula = lattices.su3_order_formula(args.q)
    results["formula_order_level1"] = tag(formula, "formula")
    level1 = results.get("level1_order", results["order"])["value"]
    results["matches_formula"] = Check(level1 == formula)
    return results, []


def cmd_random_bigraph(args):
    g = graphs.random_biregular(args.n1, args.n2, args.l, args.m, args.seed)
    doc = graphs.graph_to_json(g)
    if args.out:
        graphs.save_graph(g, args.out)
    rep = graphs.analyze_structure(g)
    return {
        "graph": doc,
        "connected": exact(rep.connected),
        "profile": exact(
            [rep.profile.n1, rep.profile.n2, rep.profile.l, rep.profile.m]
            if isinstance(rep.profile, graphs.BiregularProfile)
            else None
        ),
    }, []


def cmd_paper_suite(args):
    """Condensed verification battery mirroring the acceptance criteria.
    A battery that a subcommand also runs is that subcommand's results."""
    battery = {}
    notes = []

    # 1-2. built-in example conditions and involution suite, both kinds
    for name, kind, seed in (("galois_example", "galois", args.seed),
                             ("nongalois_example", "nongalois", args.seed + 1)):
        res, n = _run(["verify-algebra", f"--kind={kind}", "--samples=100", f"--seed={seed}"])
        battery[name] = {"status": STATUS[exit_code(res)], **res}
        notes.extend(n)

    # 3. archimedean signature
    params = algebra.example_galois_params()
    rng = random.Random(args.seed + 2)
    mats = [algebra.matrix_at_infinity(algebra.random_special_unitary(params, rng))
            for _ in range(20)]                  # all 20 drawn: the torus points follow
    arch_ok = all(np.max(np.abs(m.conj().T @ m - np.eye(3))) < 1e-10
                  and abs(np.linalg.det(m) - 1) < 1e-10 for m in mats)
    torus_ok = all(
        algebra.verify_noncompact_torus(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0)
        for _ in range(50)
    )
    battery["archimedean"] = {
        "special_unitary_matrices": floating(arch_ok, 1e-10, Check),
        "torus_points": floating(torus_ok, 1e-10, Check),
    }

    # 4. good primes
    # against a root search: p is inert iff w^2 - w + 1 has no root mod p
    # (at p = 3 it has the double root 2)
    primes_ok = lattices.good_primes_up_to(100) == [
        p for p in range(2, 101)
        if lattices.is_prime(p) and all((x * x - x + 1) % p for x in range(p))
    ]
    battery["good_primes"] = {"mod12_agreement": Check(primes_ok)}

    # 5. certification spot checks
    cert_ok = (
        all(graphs.certify_ramanujan(graphs.complete_bipartite(k, k)).is_ramanujan
            for k in range(2, 9))
        and not graphs.certify_ramanujan(graphs.complete_bipartite(2, 3)).is_ramanujan
        and all(graphs.certify_ramanujan(graphs.cycle(2 * n)).is_ramanujan
                for n in range(2, 17))
    )
    battery["certification"] = {"spot_checks": floating(cert_ok, 1e-9, Check)}

    # 7. finite group (q = 2, level 1 only, for speed) and 8. tree balls
    battery["finite_group"], _ = _run(["finite-group", "--q=2"])
    battery["tree_balls"], _ = _run(["tree", "--l=9", "--m=3", "--radius=4"])
    return {"battery": battery}, notes


def _run(argv):
    """(results, notes) of the subcommand that ``argv`` names."""
    args = _parser().parse_args(argv)
    return args.func(args)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="ramanujan-bigraphs", description=__doc__)
    parser.add_argument("--paper-suite", action="store_true",
                        help="run the condensed verification battery")
    parser.add_argument("--seed", type=int, dest="suite_seed",
                        help="seed for the paper suite (default 0); a subcommand "
                             "takes its own --seed after its name")
    parser.set_defaults(func=cmd_paper_suite)    # each subcommand sets its own
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify-algebra", help="construction conditions + involution suite")
    p.add_argument("--kind", choices=["galois", "nongalois"], default="galois")
    p.add_argument("--a", help="structure constant in E (galois kind), e.g. '(2+sqrt_m3)/(2-sqrt_m3)'")
    p.add_argument("--b", help="defining constant in E (nongalois kind), e.g. '2*zeta3'")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--witness-limit", type=int, default=200)
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("certify", help="Ramanujan certification of a graph file")
    p.add_argument("graph")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--tolerance", type=float, default=graphs.DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("spectrum", help="adjacency spectrum of a graph file")
    p.add_argument("graph")
    p.add_argument("--tolerance", type=float, default=graphs.DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_spectrum, ceiling=graphs.SPECTRUM_CEILING)   # fixed, not an option

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
    p.set_defaults(func=cmd_primes, ceiling=lattices.PRIMES_CEILING)   # fixed, not an option

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
    p.set_defaults(func=cmd_random_bigraph, ceiling=graphs.SPECTRUM_CEILING,   # on n1 + n2
                   edge_ceiling=graphs.EDGE_CEILING)                         # on n1 * l

    return parser


_parser = functools.cache(build_parser)    # parse_args leaves the parser unchanged


def main(argv=None) -> int:
    start = time.perf_counter()
    inputs = {}
    command = None
    try:
        # "seed" leads the inputs of the commands that take one; the others
        # leave it None and it is dropped below
        args = _parser().parse_args(argv, argparse.Namespace(seed=None))
        if args.command:
            if args.paper_suite:
                raise UsageError("--paper-suite takes no subcommand")
            if args.suite_seed is not None:
                raise UsageError(f"--seed before the subcommand applies to --paper-suite "
                                 f"only; put it after {args.command}")
        elif args.paper_suite:
            args.seed = args.suite_seed or 0
        else:
            raise UsageError("a subcommand or --paper-suite is required")
        # a precondition-error report keeps the inputs too: they hold the
        # ceiling that refused the run
        inputs = {k: v for k, v in vars(args).items()
                  if k not in ("func", "paper_suite", "suite_seed") and v is not None}
        command = args.command or "paper-suite"
        results, notes = args.func(args)
        code = exit_code(results)
        return _emit(command, inputs, results, code, STATUS[code], notes, start)
    except UsageError as exc:
        return _emit("usage-error", {}, {"error": str(exc)}, EXIT_USAGE, "error", [], start)
    except (graphs.GraphClassError, graphs.SpectralStructureError, lattices.LatticeError) as exc:
        return _emit("precondition-error", inputs, {"error": str(exc)}, EXIT_PRECONDITION,
                     "error", [], start)
    except (graphs.GraphError, json.JSONDecodeError, OSError, ValueError) as exc:
        return _emit("parse-error", {}, {"error": str(exc)}, EXIT_USAGE, "error", [], start)
    except Exception as exc:
        traceback.print_exc()
        return _emit("internal-error", inputs,
                     {"command": command, "error": f"{type(exc).__name__}: {exc}"},
                     EXIT_INTERNAL, "error", [], start)


def _emit(command, inputs, results, code, status, notes, start) -> int:
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
    text = json.dumps(report, indent=2)     # nothing is written if this raises
    sys.stdout.write(text + "\n")
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

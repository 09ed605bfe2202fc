"""The replayable mutation checks: each mutant is one exact text replacement
in one file under src/, and the pytest selection that must fail once it is
applied.  ``mutants/run.py`` replays them; tier-1 checks that every anchor
occurs exactly once in its file, so a refactor that moves the code must
update this table."""

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    file: str               # relative to the repository root, under src/
    anchor: str             # occurs exactly once in the file
    replacement: str
    tests: Tuple[str, ...]  # the selection, fastest killer first


ALGEBRA = "src/ramanujan_bigraphs/algebra.py"
NUMBERFIELD = "src/ramanujan_bigraphs/numberfield.py"
GRAPHS = "src/ramanujan_bigraphs/graphs.py"

MUTANTS = (
    # the Galois alpha read from column 1 of the basis images, not column 0
    Mutant("alpha-from-column-1", ALGEBRA,
           "[[row[0].tau() for row in m] for m in rows]",
           "[[row[1].tau() for row in m] for m in rows]",
           ("tests/test_algebra.py::test_galois_involution_is_conjugate_transpose",
            "tests/test_algebra.py::test_kernels_match_the_l_triple_formulas")),
    # one sign flipped among the integer cofactors of det's expansion
    Mutant("cofactor-sign", ALGEBRA,
           "minor(2, 7, 1, 8)",
           "minor(1, 8, 2, 7)",
           ("tests/test_algebra.py::test_reduced_norm",
            "tests/test_algebra.py::test_integer_cofactors_match_the_l_formula")),
    # det's integer sum put over den^2 pd^2, not den^3 pd^2
    Mutant("det-den-squared", ALGEBRA,
           "den ** 3 * x._product_den ** 2",
           "den ** 2 * x._product_den ** 2",
           ("tests/test_algebra.py::test_reduced_norm",
            "tests/test_algebra.py::test_integer_cofactors_match_the_l_formula")),
    # the complex embedding reads zeta_9^(i+1) for the numerator of zeta_9^i
    Mutant("zeta9-powers-shifted", ALGEBRA,
           "cmath.exp(2j * cmath.pi / 9) ** i for i in range(6))",
           "cmath.exp(2j * cmath.pi / 9) ** i for i in range(1, 7))",
           ("tests/test_algebra.py::test_realize_constants",
            "tests/test_algebra.py::test_embedding_is_the_fraction_formula_bit_for_bit")),
    # the hermitian draw takes the numerator of q for 2q
    Mutant("hermitian-unscaled", ALGEBRA,
           "rng.randint(-3, 3) * (2 // rng.randint(1, 2))",
           "rng.randint(-3, 3)",
           ("tests/test_algebra.py::test_random_hermitian_is_the_fraction_draw",)),
    # == between two values of one family raises instead of reading False
    Mutant("family-eq-guard", NUMBERFIELD,
           "        if type(other) is not type(self) and isinstance(other, self._family):\n"
           "            return False    # values of one family are unequal, not an error\n",
           "",
           ("tests/test_numberfield.py::test_mixing_radicands_raises",
            "tests/test_algebra.py::test_elements_of_two_algebras_do_not_mix")),
    # the Galois kind accepts a radicand b, which makes a second element class
    Mutant("galois-b-accepted", ALGEBRA,
           "        elif self.b is not None:\n"
           "            raise ValueError(\"the Galois kind takes no radicand b\")\n",
           "",
           ("tests/test_algebra.py::test_algebra_params_refusals",)),
    # the components' trees are never flattened
    Mutant("no-pointer-jumping", GRAPHS,
           "while ((up := label[label]) != label).any():",
           "while False:",
           ("tests/test_graphs.py::test_structure_of_long_paths_and_odd_cycles",
            "tests/test_graphs.py::test_structure_matches_the_search")),
    # each edge hooks one way only
    Mutant("one-way-hooking", GRAPHS,
           "np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))",
           "np.minimum.at(label, rb, ra)",
           ("tests/test_graphs.py::test_structure_of_long_paths_and_odd_cycles",
            "tests/test_graphs.py::test_structure_matches_the_search")),
    # the compiled kernels write every -1 coefficient as +1
    Mutant("minus-as-plus", NUMBERFIELD,
           '("+ " if c > 0 else "- ")',
           '("+ " if c > 0 else "+ ")',
           ("tests/test_numberfield.py::test_zeta9_reduction",
            "tests/test_numberfield.py::test_kernels_match_the_interpreter")),
    # the first image group of the compiled reduced norm is dropped
    Mutant("nrd-drop-group", ALGEBRA,
           '"v", 18, terms, 2))',
           '"v", 18, [t for t in terms if t[1] != terms[0][1]], 2))',
           ("tests/test_algebra.py::test_reduced_norm",
            "tests/test_algebra.py::test_kernels_match_the_l_triple_formulas")),
    # the first image group of the compiled reduced adjoint x^# is dropped
    Mutant("adj-drop-group", ALGEBRA,
           '"v", 18, terms, 18))',
           '"v", 18, [t for t in terms if t[1] != terms[0][1]], 18))',
           ("tests/test_algebra.py::test_inverse",
            "tests/test_algebra.py::test_adjugate_form_matches_the_l_formula",
            "tests/test_algebra.py::test_reduced_adjoint_law")),
    # a scalar x + y w of E acts by its conjugate, x + y - y w, in place of it
    Mutant("w-action-conj", NUMBERFIELD,
           "x * a + y * b for a, b in zip(num, self._times_w(num))",
           "(x + y) * a - y * b for a, b in zip(num, self._times_w(num))",
           ("tests/test_algebra.py::test_scalars_act_as_the_product",
            "tests/test_algebra.py::test_scalars_coerce_into_D")),
)

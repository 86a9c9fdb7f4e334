"""Every function and method of the package is reached from the package.

A definition that only its own tests call computes nothing that a verdict
or an output reads.  The exceptions are the views and oracles that the
tests use to check the program, the entry points that the benchmark
drives, and two checks still to be deleted; KEPT names each with its
reason.
"""

import ast
import pathlib

import outflow

PACKAGE = pathlib.Path(outflow.__file__).parent

# "module.Class.method" or "module.function" -> why it stays with no caller
# in the package
KEPT = {
    "evolve_sym.RadialScheme.K": "the radial viscous rows as one matrix, "
                                 "which the tests check against closed forms",
    "evolve_sym.RadialScheme.steady_residual": "max |rhs| on the profile, "
                                               "the tests' stationarity oracle",
    "evolve_sym.SymSolver.mass_balance": "the discrete mass balance, which the "
                                         "tests and the benchmark check",
    "evolve_axi.AxiSolver.V": "the 2D viscous rows as one matrix, which the "
                              "tests check against the Cartesian operator",
    "evolve_axi.AxiSolver.mass_balance": "the discrete mass balance, which the "
                                         "tests, the benchmark and the "
                                         "fingerprint tool check",
    "energy.ReformResult.reform_res": "the linearised side's residual, which "
                                      "the tests compare with orig_res",
    "sphops.cart_vec_lap": "the Cartesian vector Laplacian, the tests' oracle "
                           "for the 2D viscous rows",
    # not views: each is reached only by its own test, test_state_checks, and
    # is to be deleted with it (ROADMAP item 22)
    "states.SymState.check": "unreached; goes with test_state_checks",
    "states.AxiState.check": "unreached; goes with test_state_checks",
}


def _census():
    """(every function and method, those of them that nothing in the package
    names outside their own body), as "module.qualified.name" strings.

    A method counts as named by an attribute of its name (`x.step`), a
    function also by a bare name; dunders are called by Python itself and
    are left out.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    attrs, names = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(node)
    defined, unreached = set(), set()
    for path, tree in trees.items():
        stack = [(tree, path.stem, False)]
        while stack:
            parent, prefix, in_class = stack.pop()
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.ClassDef):
                    stack.append((node, f"{prefix}.{node.name}", True))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{node.name}"
                    stack.append((node, qual, False))
                    if node.name.startswith("__") and node.name.endswith("__"):
                        continue
                    defined.add(qual)
                    own = {id(n) for n in ast.walk(node)}
                    refs = attrs.get(node.name, []) + (
                        [] if in_class else names.get(node.name, []))
                    if all(id(n) in own for n in refs):
                        unreached.add(qual)
    return defined, unreached


def test_every_definition_is_reached_from_the_package():
    _, unreached = _census()
    extra = sorted(unreached - set(KEPT))
    assert not extra, f"defined but never named in src/outflow: {extra}"


def test_each_kept_definition_exists_and_is_unreached():
    """The list goes stale neither way: a kept name that is renamed, or that
    the package starts to call, leaves it."""
    defined, unreached = _census()
    assert set(KEPT) <= defined, sorted(set(KEPT) - defined)
    assert set(KEPT) <= unreached, sorted(set(KEPT) - unreached)

"""Every function and method of the package is reached from the package,
and every parameter is read by its body.

A definition that only its own tests call computes nothing that a verdict
or an output reads.  The exceptions are the views and oracles that the
tests use to check the program and the entry points that the benchmark
drives; KEPT names each with its reason.  A parameter that its body never
reads is a value every caller must hand over for nothing; UNREAD names the
few that a shared signature or protocol keeps, each with its reason.
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
}

# "module.qualified.name(parameter)" -> why its body may leave it unread; a
# lambda is named "<lambda>" inside the definition that holds it
_SHARED = ("the signature both geometries share, so code over state.velocity "
           "calls either")
UNREAD = {
    "discrete.SymOps.visc(dw)": _SHARED,
    "discrete.SymOps.visc(div)": _SHARED,
    "discrete.AxiOps.div(dw)": _SHARED,
    "states.compatibility_residual(profile)": "the benchmark passes it "
                                              "(ROADMAP items 1 and 12)",
    "evolve_sym.RadialScheme.__init__.<lambda>(t)": "bc_far(t): the manufactured-"
                                                    "solution cases replace it "
                                                    "with a time-dependent one",
    "jets.Jet.__array_function__(types)": "NumPy's __array_function__ protocol",
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


def _parameters():
    """(every parameter, those of them that their body never reads), as
    "module.qualified.name(parameter)" strings, for each def and lambda.

    A parameter counts as read by any load of its name in the body, nested
    definitions included; `self` and `cls` are left out.
    """
    every, unread = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
        while stack:
            parent, prefix = stack.pop()
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.ClassDef):
                    stack.append((node, f"{prefix}.{node.name}"))
                    continue
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.Lambda)):
                    stack.append((node, prefix))
                    continue
                qual = f"{prefix}.{getattr(node, 'name', '<lambda>')}"
                stack.append((node, qual))
                a = node.args
                names = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                         a.vararg, a.kwarg)
                         if x is not None and x.arg not in ("self", "cls")]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {n.id for b in body for n in ast.walk(b)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                for name in names:
                    every.add(f"{qual}({name})")
                    if name not in read:
                        unread.add(f"{qual}({name})")
    return every, unread


def test_every_parameter_is_read():
    _, unread = _parameters()
    extra = sorted(unread - set(UNREAD))
    assert not extra, f"parameters their body never reads: {extra}"


def test_each_unread_parameter_exists_and_is_unread():
    """The list goes stale neither way: a kept parameter that is renamed or
    removed, or that its body starts to read, leaves it."""
    every, unread = _parameters()
    assert set(UNREAD) <= every, sorted(set(UNREAD) - every)
    assert set(UNREAD) <= unread, sorted(set(UNREAD) - unread)

"""Every function and method of the package is reached from the package,
every parameter is read by its body, and every default is taken by some
caller in the program, `tools/` or `perfbench/`.

A definition that only its own tests call computes nothing that a verdict
or an output reads.  The exceptions are the views and oracles that the
tests use to check the program and the entry points that the benchmark
drives; KEPT names each with its reason.  A parameter that its body never
reads is a value every caller must hand over for nothing; UNREAD names the
few that a shared signature or protocol keeps, each with its reason.  A
default that every caller overrides is a knob nothing turns; TAKEN names
the one that a protocol keeps.
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
}

# "module.qualified.name(parameter)" -> why its body may leave it unread; a
# lambda is named "<lambda>" inside the definition that holds it
_SHARED = ("the signature both geometries share, so code over state.velocity "
           "calls either")
UNREAD = {
    "discrete.SymOps.conv(w)": _SHARED,
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


# "module.qualified.name(parameter)" or "module.Class.field" -> why the
# default stays although no call in the program, tools/ or perfbench/ omits it
TAKEN = {
    "jets.Jet.__array_ufunc__(out)": "NumPy's __array_ufunc__ protocol: NumPy "
                                     "calls it with or without out",
}

# the code whose calls may take a default: the package, the fingerprint tool
# and the benchmark harness, without the harness's own tests
_REPO = pathlib.Path(__file__).resolve().parents[1]
_CALLERS = (sorted(PACKAGE.glob("*.py")) + sorted((_REPO / "tools").glob("*.py"))
            + [p for p in sorted((_REPO / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")])


def _decorated(node, name):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == name
               for d in node.decorator_list)


def _defaults():
    """Every default of a def in the package and every dataclass field with a
    default (init=False fields excepted), as (label, keys, index, keyword).

    A call passes the value when it names `keyword` or has more than `index`
    positional arguments (None: only the keyword passes it), `self` and `cls`
    not counted.  keys tell which calls reach the definition: ("any", f) a
    call of f by its name or as an attribute, ("attr", m) a call of the
    attribute m, ("super", C) a super().__init__ call in a subclass of C.  A
    function is called by its name, a method by its attribute, and an
    `__init__` or a field by the name of its class or of a subclass.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    subclasses, own_init = {}, set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        subclasses.setdefault(base.id, []).append(node.name)
                if any(isinstance(s, ast.FunctionDef) and s.name == "__init__"
                       for s in node.body):
                    own_init.add(node.name)

    def family(name, inherits):
        """Calls of the class and of each subclass that inherits (name)."""
        names, todo = [], [name]
        while todo:
            names.append(todo.pop())
            todo += [c for c in subclasses.get(names[-1], []) if inherits(c)]
        return [("any", c) for c in names]

    out = []
    for stem, tree in trees.items():
        stack = [(tree, stem, None)]
        while stack:
            parent, prefix, cls = stack.pop()
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.ClassDef):
                    qual = f"{prefix}.{node.name}"
                    stack.append((node, qual, node.name))
                    if not _decorated(node, "dataclass"):
                        continue
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                              and not (isinstance(s.value, ast.Call) and any(
                                  k.arg == "init" for k in s.value.keywords))]
                    for i, s in enumerate(fields):
                        if s.value is not None:  # a base's fields come first
                            out.append((f"{qual}.{s.target.id}",
                                        family(node.name, lambda c: True),
                                        None if node.bases else i, s.target.id))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{node.name}"
                    stack.append((node, qual, None))
                    if cls is None:
                        keys, bound = [("any", node.name)], 0
                    elif node.name == "__init__":
                        keys = family(cls, lambda c: c not in own_init)
                        keys, bound = keys + [("super", cls)], 1
                    else:
                        keys = [("attr", node.name)]
                        bound = 0 if _decorated(node, "staticmethod") else 1
                    a = node.args
                    pos = [*a.posonlyargs, *a.args]
                    first = len(pos) - len(a.defaults)
                    for i, arg in enumerate(pos[first:], first):
                        out.append((f"{qual}({arg.arg})", keys, i - bound, arg.arg))
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                        if d is not None:
                            out.append((f"{qual}({arg.arg})", keys, None, arg.arg))
    return out


def _calls():
    """Key -> the calls in `_CALLERS` that reach it (see `_defaults`)."""
    calls = {}
    for path in _CALLERS:
        stack = [(ast.parse(path.read_text(encoding="utf-8")), ())]
        while stack:
            parent, bases = stack.pop()
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.ClassDef):
                    stack.append((node, tuple(b.id for b in node.bases
                                              if isinstance(b, ast.Name))))
                    continue
                stack.append((node, bases))
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name):
                    keys = [("any", f.id)]
                elif isinstance(f, ast.Attribute):
                    keys = [("any", f.attr), ("attr", f.attr)]
                    if (f.attr == "__init__" and isinstance(f.value, ast.Call)
                            and getattr(f.value.func, "id", None) == "super"):
                        keys += [("super", b) for b in bases]
                else:
                    continue
                for key in keys:
                    calls.setdefault(key, []).append(node)
    return calls


def _omits(call, index, keyword):
    """Whether the call leaves the value to its default; one that spreads
    *args or **kwargs may leave any."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True
    named = any(k.arg == keyword for k in call.keywords)
    return not (named or (index is not None and len(call.args) > index))


def _untaken():
    """(every default, those that no call in `_CALLERS` omits) as labels."""
    calls = _calls()
    every, untaken = set(), set()
    for label, keys, index, keyword in _defaults():
        every.add(label)
        if not any(_omits(c, index, keyword) for k in keys for c in calls.get(k, ())):
            untaken.add(label)
    return every, untaken


def test_every_default_is_taken():
    """A default that every caller overrides, or that no caller reaches, is
    a knob the program never turns: the value belongs in the calls or in a
    module constant.  Tests do not count as callers."""
    _, untaken = _untaken()
    extra = sorted(untaken - set(TAKEN))
    assert not extra, f"defaults that no call in the program, tools/ or perfbench/ takes: {extra}"


def test_each_taken_entry_exists_and_is_untaken():
    """The list goes stale neither way: an entry whose default is removed, or
    that a caller starts to take, leaves it."""
    every, untaken = _untaken()
    assert set(TAKEN) <= every, sorted(set(TAKEN) - every)
    assert set(TAKEN) <= untaken, sorted(set(TAKEN) - untaken)

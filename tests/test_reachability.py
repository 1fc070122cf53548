"""Every top-level function, class and constant in `src/weylprod` is
reachable from a root: `cli.main`, a name `bench/` imports or traces, or a
name the acceptance suite imports. The roots are read from those files.

A constant is a module-level assignment to plain names, other than dunder
names (`__all__`); it reaches what its value mentions. Reachability is by
name, from the source alone: a definition reaches every
top-level name of the package that its body mentions, directly, through a
`from .module import name` or through a module alias (`bnd.check_hlawka`),
and a class reaches everything its methods mention. Code at module level,
other than imports and constants, runs at import and counts as a root.
Annotations are not uses. A local name that shadows a top-level one counts as a use of it,
so the guard can miss dead code but does not flag live code.

A second guard, below, holds the options (parameters with a default) to
the same roots: each must be set by a call in `src/`, `bench/` or the
acceptance suite, not only by the unit tests, and left unset by another.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weylprod"
PACKAGE = "weylprod"


def _module_of(node: ast.ImportFrom):
    """The weylprod module `node` imports from ("" for the package), or
    None for any other package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and (
            node.module == PACKAGE or node.module.startswith(PACKAGE + ".")):
        return node.module[len(PACKAGE) + 1:]
    return None


class _Uses(ast.NodeVisitor):
    """The package-level names a piece of code mentions, as (module, name)."""

    def __init__(self, module: str, index):
        self.module, self.index, self.found = module, index, set()

    def _name(self, module: str, name: str) -> None:
        if name in self.index.defs.get(module, ()):
            self.found.add((module, name))

    def visit_Name(self, node):
        key = self.index.bindings[self.module].get(node.id)
        if key is not None:
            self.found.add(key)

    def visit_Attribute(self, node):
        # alias.name, alias bound to a package module
        if isinstance(node.value, ast.Name):
            target = self.index.aliases[self.module].get(node.value.id)
            if target is not None:
                self._name(target, node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        # imports inside a function body are uses of what they import
        module = _module_of(node)
        if module:
            for alias in node.names:
                self._name(module, alias.name)

    def visit_arg(self, node):
        pass  # skip the annotation

    def visit_FunctionDef(self, node):
        for child in (node.decorator_list + node.args.defaults
                      + [d for d in node.args.kw_defaults if d is not None]
                      + node.body):
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


class _Index:
    """Top-level definitions of every module and what each module's names
    and module aliases refer to."""

    def __init__(self):
        self.trees = {p.stem: ast.parse(p.read_text())
                      for p in sorted(SRC.glob("*.py"))}
        self.defs = {}
        self.bindings = {}
        self.aliases = {}
        for module, tree in self.trees.items():
            self.defs[module] = {
                node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))}
            self.defs[module].update(
                (name, node) for node in tree.body
                for name in _constant_names(node))
        for module, tree in self.trees.items():
            bind = {name: (module, name) for name in self.defs[module]}
            alias = {}
            for node in tree.body:
                if not isinstance(node, ast.ImportFrom):
                    continue
                source = _module_of(node)
                if source is None:
                    continue
                for a in node.names:
                    if source == "" and a.name in self.trees:
                        alias[a.asname or a.name] = a.name
                    elif a.name in self.defs.get(source, ()):
                        bind[a.asname or a.name] = (source, a.name)
            self.bindings[module] = bind
            self.aliases[module] = alias

    def uses(self, module: str, node) -> set:
        v = _Uses(module, self)
        v.visit(node.value if _constant_names(node) else node)
        return v.found


def _constant_names(node) -> list:
    """The names a module-level statement defines as constants: the
    targets of an assignment to plain, non-dunder names, else none."""
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    elif isinstance(node, ast.Assign):
        targets = node.targets
    else:
        return []
    names = [getattr(t, "id", None) for t in targets]
    if None in names or any(n.startswith("__") for n in names):
        return []
    return names


def _external_roots(index: _Index, path: Path) -> set:
    """(module, name) pairs that the file at `path` imports from the package
    or reaches as `weylprod.module.name`."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = _module_of(node) if node.level == 0 else None
            if module:
                roots |= {(module, a.name) for a in node.names}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id == PACKAGE):
            roots.add((node.value.attr, node.attr))
    return {r for r in roots if r[1] in index.defs.get(r[0], ())}


def traced_targets() -> tuple:
    """`TARGETS` of `bench/tracing.py`, read from its source: (module,
    function or Class.method, per-point, hook) of every wrapped name."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def _traced_roots() -> set:
    """The functions `bench/tracing.py` wraps by name; a method roots its
    class."""
    return {(module, attr.split(".")[0])
            for module, attr, _, _ in traced_targets()}


def unreachable() -> list:
    index = _Index()
    roots = {("cli", "main")} | _traced_roots()
    roots |= _external_roots(index, ROOT / "tests" / "test_acceptance.py")
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots |= _external_roots(index, path)
    for module, tree in index.trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef, ast.Import,
                                      ast.ImportFrom))
                    or _constant_names(node)):
                roots |= index.uses(module, node)
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        todo.extend(index.uses(module, index.defs[module][name]) - seen)
    return sorted(f"{module}.{name}"
                  for module, defs in index.defs.items()
                  for name in defs if (module, name) not in seen)


def test_every_definition_is_reachable():
    assert unreachable() == []


def test_guard_sees_a_dead_definition(tmp_path, monkeypatch):
    # the guard itself: a function nothing calls is reported
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "numerics.py", "a") as fh:
        fh.write("\n\ndef _never_called():\n    return LOG2\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert unreachable() == ["numerics._never_called"]


def test_guard_sees_a_dead_constant(tmp_path, monkeypatch):
    # the guard itself: a constant that no reachable code reads is
    # reported, and so is one read only by dead code; a read at import
    # clears both
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "numerics.py", "a") as fh:
        fh.write("\n\n_UNREAD_BASE = 64\n_UNREAD = _UNREAD_BASE * LOG2\n\n\n"
                 "def _never_called():\n    return _UNREAD\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert unreachable() == ["numerics._UNREAD", "numerics._UNREAD_BASE",
                             "numerics._never_called"]
    with open(tmp_path / "numerics.py", "a") as fh:
        fh.write("\n\nif _UNREAD < 0:\n    raise ValueError\n")
    assert unreachable() == ["numerics._never_called"]


# ------------------------------------------------------------------ options
# A parameter with a default is an option, and so is a dataclass field with
# a plain default, a parameter of the generated `__init__` (a
# `field(default_factory=...)` is state, not an option). Every option must
# be set by some call outside the unit tests (in `src/`, `bench/` or the
# acceptance suite), and left unset by another: an option that only tests
# set selects a path that no command runs, and a default that every such
# call overrides is one that no command relies on. Calls are matched to
# definitions by name, so a call to any `feed` sets the options of every
# `feed`, and a call of a class sets its `__init__`'s.

# option -> why it stays although the calls outside the unit tests never
# set it, or always do
OPTION_ALLOWLIST = {
    "irrational.FracPartEvaluator.__init__(n_max)":
        "the tests' mpf oracle, whose size the tests choose; kept in src/ "
        "while bench/tracing.py wraps frac_part",
    "irrational.FracPartEvaluator.__init__(precision_bits)":
        "the tests' mpf oracle, whose precision the tests choose",
    "sequences.kronecker(evaluator)":
        "the tests' mpf oracle, whose precision the tests choose",
    "numerics.decimal_str(digits)":
        "no caller at all; kept while bench/tracing.py wraps decimal_str",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_init(cls: ast.ClassDef):
    """(positional parameters, parameters with a default) of the
    `__init__` that @dataclass generates for `cls`: its annotated fields in
    order, a default unless it is a `field(default_factory=...)`."""
    positional, with_default = [], []
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        positional.append(node.target.id)
        value = node.value
        if value is None or (isinstance(value, ast.Call)
                             and getattr(value.func, "id", None) == "field"
                             and "default" not in {k.arg
                                                   for k in value.keywords}):
            continue
        with_default.append(node.target.id)
    return positional, with_default


def _options(tree):
    """(qualified name, call name, positional parameters, parameters with a
    default) of every top-level function and method, and of the `__init__`
    of every dataclass that defines none. A method's self or cls is not
    passed at a call, and a class is called for its __init__."""
    defs = [(node.name, node.name, 0, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls) and not any(
                getattr(node, "name", None) == "__init__"
                for node in cls.body):
            yield (f"{cls.name}.__init__", cls.name,
                   *_dataclass_init(cls))
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in node.decorator_list)
            call = cls.name if node.name == "__init__" else node.name
            defs.append((f"{cls.name}.{node.name}", call, 0 if static else 1,
                         node))
    for qual, call, skip, node in defs:
        a = node.args
        positional = [p.arg for p in a.posonlyargs + a.args][skip:]
        with_default = positional[len(positional) - len(a.defaults):] \
            if a.defaults else []
        with_default += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None]
        yield qual, call, positional, with_default


def _calls(trees) -> dict:
    """call name -> [(positional count, keyword names)] over every call in
    the parsed files; a *args or **kwargs counts as passing everything."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            n_pos = (float("inf") if any(isinstance(a, ast.Starred)
                                         for a in node.args)
                     else len(node.args))
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((n_pos, keywords))
    return calls


def idle_options() -> list:
    """The options that the calls in `src/`, `bench/` and the acceptance
    suite never set (none of them, if there is no call) or always set."""
    sources = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    others = sorted((ROOT / "bench").glob("*.py")) + [
        ROOT / "tests" / "test_acceptance.py"]
    calls = _calls([*sources.values(),
                    *(ast.parse(path.read_text()) for path in others)])
    idle = []
    for module, tree in sources.items():
        for qual, call, positional, options in _options(tree):
            for option in options:
                index = positional.index(option) if option in positional \
                    else float("inf")
                sets = [None in kw or option in kw or n_pos > index
                        for n_pos, kw in calls.get(call, ())]
                if all(sets) or not any(sets):
                    idle.append(f"{module}.{qual}({option})")
    return sorted(idle)


def test_every_option_is_set_outside_the_tests():
    assert idle_options() == sorted(OPTION_ALLOWLIST)


def test_guard_sees_a_test_only_option(tmp_path, monkeypatch):
    # the guard itself: an option no call sets is reported; one set by
    # position or by keyword is not
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "numerics.py", "a") as fh:
        fh.write("\n\ndef _probe(x, knob=0, *, flag=False):\n"
                 "    return x + knob + flag\n\n\n"
                 "PROBED = _probe(LOG2)\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert idle_options() == sorted([*OPTION_ALLOWLIST,
                                     "numerics._probe(flag)",
                                     "numerics._probe(knob)"])
    with open(tmp_path / "numerics.py", "a") as fh:
        fh.write("PROBED = _probe(LOG2, 1) + _probe(LOG2, flag=True)\n")
    assert idle_options() == sorted(OPTION_ALLOWLIST)


def test_guard_sees_an_unused_default(tmp_path, monkeypatch):
    # the guard itself: a default that every call overrides is reported,
    # whether the calls pass it by position or by keyword; a call that
    # leaves it unset clears it
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "numerics.py", "a") as fh:
        fh.write("\n\ndef _probe(x, knob=0):\n    return x + knob\n\n\n"
                 "PROBED = _probe(LOG2, 1) + _probe(LOG2, knob=2)\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert idle_options() == sorted([*OPTION_ALLOWLIST,
                                     "numerics._probe(knob)"])
    with open(tmp_path / "numerics.py", "a") as fh:
        fh.write("PROBED = _probe(LOG2)\n")
    assert idle_options() == sorted(OPTION_ALLOWLIST)


def test_guard_sees_a_dataclass_option(tmp_path, monkeypatch):
    # a dataclass field with a plain default is an option of its __init__,
    # unset until a call passes it; a field(default_factory=...) is state
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "numerics.py", "a") as fh:
        fh.write("\n\nfrom dataclasses import dataclass, field\n\n\n"
                 "@dataclass(frozen=True)\nclass _Probe:\n"
                 "    x: float\n    knob: int = 0\n"
                 "    rows: list = field(default_factory=list)\n\n\n"
                 "PROBED = _Probe(LOG2)\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert idle_options() == sorted([*OPTION_ALLOWLIST,
                                     "numerics._Probe.__init__(knob)"])
    with open(tmp_path / "numerics.py", "a") as fh:
        fh.write("PROBED = _Probe(LOG2, 1)\n")
    assert idle_options() == sorted(OPTION_ALLOWLIST)

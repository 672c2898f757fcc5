"""Every keyword parameter with a default has a caller that sets it, in the
program and not only in its unit tests, and every function the package
defines has a user in the package.

A default that no call ever overrides is a constant dressed as an option:
it doubles the configurations a reader must consider without any caller
needing the choice.  This test parses every ``def`` (and every dataclass
field with a default) in ``src/mingauge`` and every call in ``src/``,
``tests/`` and ``perfbench/``, and lists the parameters with a default that
no call passes, by keyword or by position.  Calls are matched to functions
by name only, so a name shared by two functions lets either one's callers
count for both; a call that unpacks ``*args`` or ``**kwargs`` counts as
passing every positional or keyword parameter it could reach.

Likewise a function that only tests reach is a second program kept alive
beside the one that ships.  The second scan lists every ``def`` in
``src/mingauge`` whose name no code in ``src/`` uses, as a name or an
attribute, outside that def's own body.  Strings (``__all__``) do not count.
Dunders and the functions the acceptance tests import are exempt.

The third scan runs the first over the calls of the program alone: ``src/``,
``perfbench/`` and the acceptance tests, which drive the program as a user
does.  An option only unit tests set is a second path kept for the tests.
"""
import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mingauge"
CALLER_DIRS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _trees(dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield (path.relative_to(ROOT),
                   ast.parse(path.read_text(), filename=str(path)))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _field_in_init(value) -> bool:
    """False for ``field(..., init=False)``."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        return not any(k.arg == "init" and isinstance(k.value, ast.Constant)
                       and k.value.value is False for k in value.keywords)
    return True


def _options(path, tree):
    """``(name, params, skip, optional, path)`` per def and dataclass:
    ``params`` the parameter names in order, ``skip`` how many of them a
    call through an attribute or the class does not pass (``self``, ``cls``),
    ``optional`` the names with a default, each with its line."""
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaults = dict(zip(positional[len(positional) - len(a.defaults):],
                                a.defaults))
            optional = {p: node.lineno for p in defaults}
            optional.update({k.arg: node.lineno for k, d
                             in zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None})
            in_class = isinstance(parents.get(node), ast.ClassDef)
            static = any(getattr(d, "id", "") == "staticmethod"
                         for d in node.decorator_list)
            skip = int(in_class and not static and bool(positional))
            params = positional + [k.arg for k in a.kwonlyargs]
            yield node.name, params, skip, optional, path
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            params, optional = [], {}
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and _field_in_init(stmt.value)):
                    params.append(stmt.target.id)
                    if stmt.value is not None:
                        optional[stmt.target.id] = stmt.lineno
            yield node.name, params, 0, optional, path


def _callee(call: ast.Call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id, False
    if isinstance(f, ast.Attribute):
        return f.attr, True
    return None, False


def unset_options(def_trees, call_trees):
    """Sorted ``"file:line name(param)"`` strings, one per option of a def in
    ``def_trees`` that no call in ``call_trees`` sets; both are
    ``(path, ast)`` pairs."""
    defs = defaultdict(list)
    for path, tree in def_trees:
        for name, params, skip, optional, where in _options(path, tree):
            defs[name].append((params, skip, optional, where))
    passed = defaultdict(set)  # (name, k-th def of it) -> params a call sets
    for _, tree in call_trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name, via_attribute = _callee(call)
            for k, (params, skip, _, _) in enumerate(defs.get(name, ())):
                got = passed[name, k]
                start = skip if via_attribute else 0
                if any(isinstance(a, ast.Starred) for a in call.args):
                    got.update(params[start:])
                else:
                    got.update(params[start:start + len(call.args)])
                for kw in call.keywords:
                    if kw.arg is None:
                        got.update(params)
                    else:
                        got.add(kw.arg)
    out = []
    for name, variants in defs.items():
        for k, (_, _, optional, where) in enumerate(variants):
            out += [f"{where}:{line} {name}({param})"
                    for param, line in optional.items()
                    if param not in passed[name, k]]
    return sorted(out)


def test_every_option_has_a_caller_that_sets_it():
    unset = unset_options(_trees([PACKAGE]), _trees(CALLER_DIRS))
    assert not unset, ("options no call sets; make them constants:\n  "
                       + "\n  ".join(unset))


def test_the_scan_lists_an_option_no_call_sets():
    # by keyword, by position, through a method and through a dataclass
    source = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2):\n    pass\n"
        "class K:\n    def m(self, x=0, y=0):\n        pass\n"
        "@dataclass\nclass D:\n    a: int\n    b: int = 0\n"
        "    c: dict = field(default_factory=dict, init=False)\n")
    calls = ast.parse("f(1, 2)\nK().m(3)\nD(1)\n")
    assert unset_options([("s", source)], [("c", calls)]) == [
        "s:10 D(b)", "s:2 f(c)", "s:5 m(y)"]


def program_trees(trees):
    """The ``(path, ast)`` pairs of ``trees`` that belong to the program:
    those under ``src/`` or ``perfbench/``, and the acceptance tests."""
    acceptance = ACCEPTANCE.relative_to(ROOT)
    return [(path, tree) for path, tree in trees
            if path.parts[0] in ("src", "perfbench") or path == acceptance]


def test_every_option_has_a_caller_in_the_program():
    unset = unset_options(_trees([PACKAGE]),
                          program_trees(_trees(CALLER_DIRS)))
    assert not unset, ("options only unit tests set; make them constants "
                       "or derive them:\n  " + "\n  ".join(unset))


def test_the_program_scan_ignores_unit_test_calls():
    # calls in src/, perfbench/ and the acceptance tests count; a unit
    # test's does not
    source = ast.parse("def f(a, b=1, c=2, d=3, e=4):\n    pass\n")
    calls = [(Path(where), ast.parse(code)) for where, code in [
        ("src/mingauge/x.py", "f(0, c=1)\n"),
        ("perfbench/run.py", "f(0, d=1)\n"),
        ("tests/test_acceptance.py", "f(0, e=1)\n"),
        ("tests/test_unit.py", "f(0, b=1)\n")]]
    assert unset_options([("s", source)], program_trees(calls)) == ["s:1 f(b)"]
    assert unset_options([("s", source)], calls) == []


def unused_defs(trees, exempt=()):
    """Sorted ``"file:line name"`` strings, one per def in ``trees`` (``(path,
    ast)`` pairs) whose name no Name or Attribute node of ``trees`` outside
    the def itself uses; dunders and the names in ``exempt`` are skipped."""
    uses, defs = defaultdict(list), []
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path, node))
    out = []
    for path, node in defs:
        name = node.name
        if name in exempt or (name.startswith("__") and name.endswith("__")):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if all(id(use) in inside for use in uses[name]):
            out.append(f"{path}:{node.lineno} {name}")
    return sorted(out)


def _imported_names(path):
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_function_has_a_user_in_the_package():
    unused = unused_defs(_trees([PACKAGE]), _imported_names(ACCEPTANCE))
    assert not unused, ("functions only tests reach; delete them or move "
                        "them to the tests:\n  " + "\n  ".join(unused))


def test_the_scan_lists_a_def_only_its_own_body_uses():
    # recursion and a string do not count; a call, a reference through an
    # attribute and a nested def returned by name do
    source = ast.parse(
        "__all__ = ['dead']\n"
        "def dead(n):\n    return dead(n - 1)\n"
        "def called():\n    pass\n"
        "class K:\n    def via_attr(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "def outer():\n    def inner():\n        pass\n    return inner\n"
        "def main():\n    called()\n    K().via_attr()\n    outer()\n"
        "def kept():\n    pass\n")
    assert unused_defs([("s", source)], exempt={"kept"}) == [
        "s:15 main", "s:2 dead"]

"""Design guard: no option or field that nothing sets.

Every defaulted parameter and dataclass field under src/kezeta must be set to
a value other than its default by some call in src/, scripts/ or perfbench/;
a default that only a test overrides is an option the program does not have.
Calls are matched to definitions by the callee's name (`f(...)`,
`obj.f(...)`, `Class(...)` for `__init__` and dataclass fields).  An
argument counts as setting a parameter unless it is the same literal as the
default, and `*args` or `**kwargs` counts as setting every parameter it can
reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Calls that a match by callee name cannot resolve, listed by hand as (file,
# enclosing class, name called) -> the definitions they reach: MeroValue's
# classmethods construct it as `cls(...)`, and cli_numeric calls one of two
# samplers as `fn`.
_CALLED_AS = {
    ("gammaprod.py", "MeroValue", "cls"): ("MeroValue",),
    ("cli_numeric.py", None, "fn"): ("mc_gaussian_det", "mc_gaussian_det_ratio"),
}
# argparse calls every Action as action(parser, namespace, values, option_string)
_SET_BY_ARGPARSE = {("_ConfigFile.__call__", "option_string")}


def _literal(node):
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError):
        return False, None


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _definitions():
    """(callee name, qualified name, positional names, {defaulted name: default})
    for every function and dataclass under src/kezeta."""
    defs = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign)
                              and "ClassVar" not in ast.unparse(s.annotation)]
                    names = [f.target.id for f in fields]
                    defaults = {f.target.id: f.value for f in fields if f.value is not None}
                    defs.append((child.name, child.name, names, defaults))
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaults = dict(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                defaults.update({p.arg: d for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None})
                method = isinstance(owner, ast.ClassDef)
                if method and "staticmethod" not in [ast.unparse(d) for d in child.decorator_list]:
                    positional = positional[1:]
                callee = owner.name if method and child.name == "__init__" else child.name
                qualname = f"{owner.name}.{child.name}" if method else child.name
                if defaults:
                    defs.append((callee, qualname, positional, defaults))
                visit(child, None)

    for path in sorted((ROOT / "src" / "kezeta").glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    return defs


def _calls():
    """(callee names, call) for every call in src/, scripts/ and perfbench/."""

    def walk(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                yield _CALLED_AS.get((path.name, owner, name), (name,)), child
            yield from walk(child, path, child.name if isinstance(child, ast.ClassDef) else owner)

    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield from walk(ast.parse(path.read_text()), path, None)


def _sets(call: ast.Call, positional, param, default) -> bool:
    """Whether `call` may set `param` to something other than `default`."""
    if any(k.arg is None for k in call.keywords):  # **kwargs
        return True
    given = [k.value for k in call.keywords if k.arg == param]
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            if param in positional[i:]:
                return True
            break
        if i < len(positional) and positional[i] == param:
            given.append(arg)
    known, value = _literal(default)
    return any(not known or _literal(g) != (True, value) for g in given)


def test_every_default_is_overridden_outside_the_tests():
    calls = list(_calls())
    unset = []
    for callee, qualname, positional, defaults in _definitions():
        mine = [call for names, call in calls if callee in names]
        for param, default in defaults.items():
            if (qualname, param) in _SET_BY_ARGPARSE:
                continue
            if not any(_sets(call, positional, param, default) for call in mine):
                unset.append(f"{qualname}({param}={ast.unparse(default)})")
    assert not unset, "defaults nothing outside tests/ overrides: " + ", ".join(unset)

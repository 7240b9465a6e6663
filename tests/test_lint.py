"""Source rules over `src/lcatch`, read from its syntax trees.

Two rules hold for the package:
- no module imports a name it never uses, or keeps a private top-level
  name (`def _x`, `class _X`, `_X = ...`) that no module reads;
- every parameter default is an option some call in `src/lcatch` sets,
  so no default is one that only tests set.

Each planted violation, in a copy of the package, must fail its rule.
"""

import ast
import shutil
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lcatch"

# cli.main's argv: the console script calls main bare; TypingEnv's gamma and
# delta: the tests type open terms through them
DEFAULT_EXEMPT = {("cli", "main", "argv"), ("typecheck", "TypingEnv", "gamma"),
                  ("typecheck", "TypingEnv", "delta")}


def _modules(root: Path):
    for path in sorted(root.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def unused_names(root: Path) -> list[str]:
    """Imports a module never uses, and private top-level names no module
    reads.  A private name is read where its module loads it, where another
    module imports it from there, or as `module._x`."""
    problems = []
    defined, read = {}, set()
    for path, tree in _modules(root):
        module = path.stem
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
                    if isinstance(node, ast.ImportFrom) and node.level == 1:
                        read.add((node.module, alias.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        problems += [f"{path}:{line}: {name} is imported and never used"
                     for name, line in imported.items() if name not in used]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [n.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                           for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                targets = []
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    defined[(module, name)] = f"{path}:{node.lineno}"
    problems += [f"{where}: {name} is private and no module reads it"
                 for (module, name), where in defined.items() if (module, name) not in read]
    return problems


def unset_defaults(root: Path) -> list[str]:
    """Parameter defaults that no call in the package overrides.

    A call passes a parameter by position, by keyword or by a spread.
    Calls match by name; a method's caller passes self implicitly, and a
    constructor is called by its class's name.  A @dataclass field with a
    default is a constructor parameter too, unless it is field(init=False).
    """
    calls, defaulted = {}, []
    for path, tree in _modules(root):
        owner = {f: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                spread = (any(isinstance(a, ast.Starred) for a in node.args)
                          or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}, spread))
            elif isinstance(node, ast.FunctionDef):
                positional = node.args.posonlyargs + node.args.args
                shift = 1 if node in owner else 0
                name = owner[node] if node.name == "__init__" else node.name
                first = len(positional) - len(node.args.defaults)
                params = [(i - shift, a.arg) for i, a in enumerate(positional) if i >= first]
                params += [(None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
                defaulted += [(f"{path}:{node.lineno}", path.stem, name, i, arg) for i, arg in params]
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None))
                    for d in node.decorator_list):
                index = 0    # the field's position in the constructor
                for item in node.body:
                    if not isinstance(item, ast.AnnAssign):
                        continue
                    spec = item.value
                    options = ({k.arg: k.value for k in spec.keywords} if isinstance(spec, ast.Call)
                               and getattr(spec.func, "id", None) == "field" else None)
                    if options is not None and getattr(options.get("init"), "value", True) is False:
                        continue
                    if spec is not None and (options is None or {"default", "default_factory"} & set(options)):
                        defaulted.append((f"{path}:{item.lineno}", path.stem, node.name, index, item.target.id))
                    index += 1
    return [f"{where}: {name}'s {arg} has a default that no call in src/lcatch overrides"
            for where, module, name, index, arg in defaulted
            if (module, name, arg) not in DEFAULT_EXEMPT and not any(
                spread or arg in keywords or index is not None and count > index
                for count, keywords, spread in calls.get(name, ()))]


def test_no_unused_import_or_dead_private_name():
    assert unused_names(SRC) == []


def test_every_default_is_set_by_some_call():
    assert unset_defaults(SRC) == []


@pytest.mark.parametrize("module, planted, rule, found", [
    ("metatheory", "def _dead():\n    return 0\n", unused_names,
     ["_dead is private and no module reads it"]),
    ("metatheory", "class _Dead:\n    pass\n", unused_names,
     ["_Dead is private and no module reads it"]),
    ("reduction", "_DEAD_CAP = 3\n", unused_names,
     ["_DEAD_CAP is private and no module reads it"]),
    ("syntax", "_dead_a, (live, _dead_b) = 1, (2, 3)\n", unused_names,
     ["_dead_a is private and no module reads it", "_dead_b is private and no module reads it"]),
    ("surface", "import json\n", unused_names, ["json is imported and never used"]),
    ("__init__", "from . import syntax\n", unused_names, ["syntax is imported and never used"]),
    ("confluence", "def widen(t, depth=0):\n    return t\n", unset_defaults,
     ["widen's depth has a default that no call in src/lcatch overrides"]),
    ("metatheory", "@dataclass\nclass Plan:\n    name: str\n    depth: int = 0\n\n\n"
     "PLAN = Plan('x')\n", unset_defaults,
     ["Plan's depth has a default that no call in src/lcatch overrides"]),
], ids=["def", "class", "constant", "tuple-target", "import", "init-import",
        "parameter", "dataclass-field"])
def test_a_planted_violation_fails_its_rule(tmp_path, module, planted, rule, found):
    copy = tmp_path / "lcatch"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / f"{module}.py"
    target.write_text(target.read_text(encoding="utf-8") + "\n\n" + planted, encoding="utf-8")
    problems = rule(copy)
    assert [problem.split(": ", 1)[1] for problem in problems] == found
    assert all(problem.startswith(f"{target}:") for problem in problems)

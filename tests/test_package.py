"""The package's exports, and the layers each start-up path loads.

`lcatch/__init__.py` resolves its names on first use, so `import lcatch`
compiles no layer, and the CLI imports `metatheory` and `confluence` only
in the commands that run them.  Start-up paths are checked in a fresh
interpreter, whose `sys.modules` no other test has filled.
"""

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lcatch

EXPORTS = {
    "syntax": ["App", "ArrowType", "Catch", "ConsC", "Lam", "ListType", "LrecC", "MetaVar",
               "Nil", "Term", "Throw", "Type", "UnitType", "UnitVal", "Var", "alpha_eq",
               "free_vars", "numeral", "size", "subst"],
    "surface": ["ParseError", "SourceProgram", "parse_program", "parse_term", "print_term",
                "print_type"],
    "typecheck": ["ErrorKind", "TypingEnv", "TypingError", "check", "derivable", "infer",
                  "is_arrow_free"],
    "reduction": ["Outcome", "OutcomeKind", "ReductionEvent", "Rule", "contract",
                  "enumerate_redexes", "evaluate", "step_cbv"],
    "confluence": ["complete_development", "parallel_reducts"],
    "prelude": ["NotANumeral", "decode_nat", "library"],
    "metatheory": ["GenConfig", "PropertyReport", "gen_term", "minimize", "run_property"],
}
LAYERS = set(EXPORTS)


def loaded_after(script: str) -> set[str]:
    """The `lcatch` modules a fresh interpreter holds after running `script`."""
    probe = (script + "\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'lcatch'))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(lcatch.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return set(done.stdout.splitlines()[-1].split())


# ------------- start-up paths -------------


def test_bare_import_loads_no_layer():
    assert loaded_after("import lcatch") == {"lcatch"}


def test_library_loads_only_the_layers_it_uses():
    script = "import lcatch\nfrom lcatch import prelude\nprelude.library()"
    assert loaded_after(script) == {"lcatch", "lcatch.syntax", "lcatch.surface",
                                    "lcatch.typecheck", "lcatch.prelude"}


def test_library_runs_from_a_copy_of_the_package_alone(tmp_path):
    # the prelude is read from the file beside the modules, so the package
    # directory is all an interpreter needs on its path
    shutil.copytree(Path(lcatch.__file__).parent, tmp_path / "lcatch",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = ("import sys\nsys.path.insert(0, sys.argv[1])\n"
              "import lcatch\nfrom lcatch import prelude\n"
              "assert lcatch.__file__.startswith(sys.argv[1]), lcatch.__file__\n"
              "print(*(name for name, _term in prelude.library()))\n")
    done = subprocess.run([sys.executable, "-I", "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["nrec", "pred", "plus", "times", "prodz"]


@pytest.mark.parametrize("argv, needs", [
    (["eval", "-e", "pred #3"], set()),
    (["redexes", "-e", "pred #3"], set()),
    (["check", "PROGRAM"], set()),
    (["develop", "-e", "pred #3"], {"lcatch.confluence"}),
    (["meta", "--props", "sr", "--cases", "1"], {"lcatch.metatheory", "lcatch.confluence"}),
], ids=["eval", "redexes", "check", "develop", "meta"])
def test_each_command_loads_metatheory_and_confluence_only_if_it_runs_them(
        tmp_path, argv, needs):
    program = tmp_path / "one.lc"
    program.write_text("def one = #1;\n")
    argv = [str(program) if arg == "PROGRAM" else arg for arg in argv]
    loaded = loaded_after(f"from lcatch import cli\nassert cli.main({argv!r}) == 0")
    assert loaded & {"lcatch.metatheory", "lcatch.confluence"} == needs
    assert {"lcatch.cli", "lcatch.reduction", "lcatch.prelude"} <= loaded


# ------------- exports -------------


def test_all_holds_every_export_once():
    names = [name for layer in EXPORTS.values() for name in layer]
    assert len(names) == len(set(names)) == 51
    assert sorted(lcatch.__all__) == sorted(names)


def test_each_export_is_its_home_layers_object():
    for layer, names in EXPORTS.items():
        home = importlib.import_module(f"lcatch.{layer}")
        for name in names:
            assert getattr(lcatch, name) is getattr(home, name), name


def test_each_layer_resolves_after_a_bare_import():
    script = ("import sys, lcatch\n"
              f"for layer in {sorted(LAYERS)!r}:\n"
              "    assert getattr(lcatch, layer) is sys.modules['lcatch.' + layer], layer\n")
    assert loaded_after(script) == {"lcatch"} | {f"lcatch.{layer}" for layer in LAYERS}


def test_dir_lists_every_export_and_layer():
    assert set(lcatch.__all__) | LAYERS <= set(dir(lcatch))


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from lcatch import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lcatch.__all__)


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'lcatch' has no attribute 'no_such_name'"):
        lcatch.no_such_name
    with pytest.raises(ImportError):
        from lcatch import no_such_name  # noqa: F401

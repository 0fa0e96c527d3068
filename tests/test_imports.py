"""What importing weylflags loads, checked in fresh interpreters, and that
every public function it defines has a caller outside the tests."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
from collections import Counter

import pytest

import weylflags

SRC = os.path.dirname(os.path.dirname(weylflags.__file__))
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def run_isolated(code):
    """Run code in a fresh interpreter that sees only the standard library
    and src/: no site packages, no PYTHON* variables, no .pth hooks, and
    no .pyc files written.  Returns what the code printed, decoded as JSON."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# the weylflags modules each command loads, and whether it loads the
# fractions module, which a light request has no use for; no command
# loads the dataclasses module, only the commands that encode cosets
# load jsonio, and a well-formed command line is parsed without argparse
_LIGHT = ["cli", "weyl"]
COMMAND_IMPORTS = [
    (["weyl", "--perm", "[3,2,1]", "--other", "[1,3,2]"], _LIGHT, False),
    (["coset", "--perm", "[3,1,2]", "--blocks", "[2,1]", "--qblocks", "[1,2]"],
     _LIGHT + ["cosets", "roots"], False),
    (["coset", "--perm", "[3,1,2]", "--blocks", "[2,1]", "--enumerate"],
     _LIGHT + ["cosets", "jsonio", "roots"], False),
    (["steinberg", "--blocks", "[2,1]", "--qblocks", "[3]", "--perm", "[1,3,2]", "--h", "[0,0,1]",
      "--list-components"], _LIGHT + ["cosets", "roots", "steinberg"], False),
    (["companion", "--scenario", "SCENARIO", "--jordan-holder"],
     _LIGHT + ["companion", "cosets", "jsonio", "roots"], True),
    (["walk", "--h", "[0,0,1]"], _LIGHT + ["companion", "cosets", "jsonio", "roots", "steinberg"], True),
    (["ff-verify", "--n", "2", "--p", "2"], ["cli", "fforacle", "weyl"], False),
]

# command lines only argparse answers, each with its exit code and the
# start and end of what it prints
ARGPARSE_LINES = [
    (["weyl", "-h"], 0, "usage: weylflags weyl [-h] [--pretty] --perm PERM", "  --other OTHER"),
    (["weyl", "--other", "[1]"], 2, "usage: weylflags weyl [-h] [--pretty] --perm PERM",
     "weylflags weyl: error: the following arguments are required: --perm"),
]


def run_main(argv):
    """cli.main(argv) in a fresh interpreter: [exit code, the weylflags
    modules loaded, whether dataclasses, fractions and argparse are
    loaded, what it printed on stdout and stderr]."""
    return run_isolated(
        "import contextlib, io, json\n"
        "import weylflags.cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    try:\n"
        f"        code = weylflags.cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "mods = sorted(name[10:] for name in sys.modules if name.startswith('weylflags.'))\n"
        "loaded = ['dataclasses' in sys.modules, 'fractions' in sys.modules, 'argparse' in sys.modules]\n"
        "print(json.dumps([code, mods, *loaded, out.getvalue(), err.getvalue()]))\n"
    )


def test_each_command_loads_only_the_modules_it_answers_from(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"places": [{
        "label": "v", "q": 3, "embeddings": ["t"], "hodge_weights": {"t": [1, 1, 2]},
        "refinement_order": ["a", "b", "c"], "eigenvalues": {"a": "1", "b": "5", "c": "28/3"},
    }]}))
    for argv, modules, fractions in COMMAND_IMPORTS:
        argv = [str(scenario) if arg == "SCENARIO" else arg for arg in argv]
        loaded = run_main(argv)
        assert loaded[:5] == [0, sorted(modules), False, fractions, False], argv
        assert loaded[6] == "", argv


def test_help_and_refusals_go_through_argparse():
    for argv, code, first, last in ARGPARSE_LINES:
        loaded = run_main(argv)
        assert loaded[:5] == [code, _LIGHT, False, False, True], argv
        text = loaded[5] or loaded[6]
        assert text.startswith(first + " ") and text.splitlines()[-1].startswith(last), argv


def test_the_star_import_loads_no_dataclasses():
    loaded = run_isolated(
        "import json\n"
        "from weylflags import *\n"
        "print(json.dumps('dataclasses' in sys.modules))\n"
    )
    assert loaded is False


def test_importing_the_package_loads_no_submodule():
    loaded = run_isolated(
        "import json\n"
        "import weylflags\n"
        "print(json.dumps(sorted(name for name in sys.modules if name.startswith('weylflags'))))\n"
    )
    assert loaded == ["weylflags"]


def test_every_export_resolves_to_its_home_module():
    star = {}
    exec("from weylflags import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(weylflags.__all__)
    listed = dir(weylflags)
    for name in weylflags.__all__:
        assert name in listed
        if name == "__version__":
            continue
        obj = getattr(weylflags, name)
        home = importlib.import_module(obj.__module__)
        assert vars(home)[name] is obj is star[name]
        assert obj.__module__ == f"weylflags.{weylflags._HOME[name]}", name


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylflags.no_such_name


def test_the_package_needs_only_the_standard_library():
    # numpy and hypothesis are installed next to weylflags; neither may
    # become a runtime dependency, and nothing from tests/ may leak in
    outside = run_isolated(
        "import importlib, json, pkgutil\n"
        "import weylflags\n"
        "names = [info.name for info in pkgutil.iter_modules(weylflags.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('weylflags.' + name)\n"
        "top = {name.split('.')[0] for name in sys.modules}\n"
        "print(json.dumps([names, sorted(top - set(sys.stdlib_module_names) - {'weylflags', '__main__'})]))\n"
    )
    names, foreign = outside
    assert {"cli", "fforacle", "jsonio", "weyl"} <= set(names)
    assert foreign == []


def test_scenario_parsing_does_not_import_the_oracle():
    # a file naming suite checks is refused without loading the check list
    loaded = run_isolated(
        "import json\n"
        "from weylflags import jsonio\n"
        "data = {'places': [{'label': 'v', 'q': 3, 'embeddings': ['t'],\n"
        "                    'hodge_weights': {'t': [0, 1]}, 'refinement_order': ['a', 'b']}],\n"
        "        'checks': ['point_count']}\n"
        "try:\n"
        "    jsonio.parse_scenario(data)\n"
        "except jsonio.ScenarioError as err:\n"
        "    message = str(err)\n"
        "print(json.dumps([message, 'weylflags.fforacle' in sys.modules]))\n"
    )
    assert loaded == ["scenario: unknown field 'checks'", False]


def code_references(source):
    """How often code names each name: Name and Attribute nodes and
    imported names, outside the top-level definition of the same name.
    Docstring and comment words are not code, and a recursive call is not
    a caller."""
    counts = Counter()
    for top in ast.parse(source).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or isinstance(node, ast.alias) and node.name
            if name and name != own:
                counts[name] += 1
    return counts


def test_every_public_function_has_a_caller_outside_the_tests():
    # a public function is referenced by code in src/ besides its own
    # definition (cli.cmd_* as values in build_parser), exported from the
    # package, or called by the benchmark through its module or the
    # package (the benchmark's own helpers, such as verify.mat_inv, share
    # some names); anything only the tests call belongs under tests/
    package = pathlib.Path(weylflags.__file__).parent
    references = sum((code_references(path.read_text()) for path in package.glob("*.py")), Counter())
    bench_text = "".join(path.read_text() for path in PERFBENCH.glob("*.py"))
    orphans = []
    for info in pkgutil.iter_modules(weylflags.__path__):
        mod = importlib.import_module("weylflags." + info.name)
        for name, obj in vars(mod).items():
            fn = inspect.unwrap(obj)
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            called = any(f"{qualifier}.{name}(" in bench_text for qualifier in (info.name, "weylflags"))
            if not (references[name] or name in weylflags.__all__ or called):
                orphans.append(f"{info.name}.{name}")
    assert orphans == []

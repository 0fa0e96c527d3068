"""What importing weylflags loads, checked in fresh interpreters."""

import json
import os
import subprocess
import sys

import weylflags

SRC = os.path.dirname(os.path.dirname(weylflags.__file__))


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


def test_light_commands_do_not_import_the_oracle():
    loaded = run_isolated(
        "import json\n"
        "import weylflags.cli\n"
        "after_import = 'weylflags.fforacle' in sys.modules\n"
        "code = weylflags.cli.main(['weyl', '--perm', '[3,2,1]'])\n"
        "print(json.dumps([after_import, 'weylflags.fforacle' in sys.modules, code]))\n"
    )
    assert loaded == [False, False, 0]


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

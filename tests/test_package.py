"""The package loads a module only when a name from it is first used.

`ttlab/__init__.py` names its exports in one table, `_EXPORTS`, and
imports a name's module on first use through the module `__getattr__`
of PEP 562.  `cli` imports the modules that every command needs, and
a command's own modules when that command runs.  What an entry point
loads is read in a fresh interpreter, since this one has imported
every module long since.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ttlab
from ttlab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# what reading or writing a spec file never needs
DEFERRED = {"ttlab.cover", "ttlab.linalg", "ttlab.classify", "ttlab.spin",
            "ttlab.probe", "ttlab.saddle", "ttlab.rng", "hashlib"}

# the modules of the package that _load needs for every command
BASE = {"cli", "errors", "ribbon", "specfile", "surface", "topology"}

# argv (SPEC standing for a genus-2 pants file) -> the modules it loads
LOADED = {
    ("validate", "SPEC"): BASE,
    ("pants", "2"): BASE,
    ("plumbing", "3", "3"): BASE,
    ("flow", "SPEC", "--scale", "2"): BASE,
    ("twist", "SPEC", "0=1"): BASE,
    ("rank", "SPEC"): BASE | {"cover", "linalg"},
    ("classify", "SPEC"): BASE | {"classify", "cover", "linalg"},
    ("spin", "SPEC"): BASE | {"spin"},
    ("probe", "SPEC", "--samples", "2"): BASE | {"probe", "rng", "saddle", "hashlib"},
}


def loaded_after(code, *argv):
    """The modules of the package, and hashlib, that a fresh interpreter
    holds after it runs code with argv as sys.argv[1:]."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('ttlab.') or m == 'hashlib')))\n")
    done = subprocess.run([sys.executable, "-c", script, *argv], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("entry", ["import ttlab.specfile", "import ttlab"])
def test_reading_spec_files_loads_no_command_module(entry):
    assert not loaded_after(entry) & DEFERRED


def test_each_command_loads_its_own_modules(tmp_path):
    spec = tmp_path / "pants.spec"
    assert main(["pants", "2", "--lengths", "3,4,9", "--out", str(spec)]) == 0
    run = ("import contextlib, io, sys\n"
           "from ttlab.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert main(sys.argv[1:]) == 0\n")
    for argv, modules in LOADED.items():
        argv = [str(spec) if a == "SPEC" else a for a in argv]
        expected = {m if m == "hashlib" else "ttlab." + m for m in modules}
        assert loaded_after(run, *argv) == expected, argv


def test_a_module_resolves_after_a_bare_import():
    loaded = loaded_after("import sys, ttlab\n"
                          "assert 'ttlab.cover' not in sys.modules\n"
                          "assert ttlab.cover is sys.modules['ttlab.cover']\n")
    assert "ttlab.cover" in loaded


def test_the_exports_are_the_table():
    table = {name: module for module, names in ttlab._EXPORTS.items() for name in names}
    assert ttlab.__all__ == sorted(table)
    for name, module in table.items():
        value = getattr(ttlab, name)
        assert value is getattr(importlib.import_module("ttlab." + module), name)
        assert vars(ttlab)[name] is value
    namespace = {}
    exec("from ttlab import *", namespace)
    assert set(table) <= set(namespace)
    assert set(table) <= set(dir(ttlab))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as caught:
        ttlab.no_such_name
    assert str(caught.value) == "module 'ttlab' has no attribute 'no_such_name'"

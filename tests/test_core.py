"""The package holds only what its commands and its library API use.

A module-level function or class of `src/ttlab` must be referenced
somewhere else in the package or be exported by `ttlab/__init__.py`
(named in its table `_EXPORTS`); that file's own `__getattr__` and
`__dir__` are the module protocol, which Python calls.
Code that only the tests reach belongs in `tests/oracles.py`.

The README names, as library API, exactly the exported names that no
module of the package uses.

Output has one writer: `cli.main` is the only function of the package
that writes stdout or opens a file for writing.

A surface converts and checks its own numbers: in `surface`, only the
methods of `FlatTwistSurface` call `_convert`, and `_shear` for its
time.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ttlab"
README = PACKAGE.parent.parent / "README.md"


def package_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def exported_names(init):
    """The names of the export table `_EXPORTS` of `ttlab/__init__.py`,
    which maps each module to the names the package exports from it."""
    table = next(node.value for node in init.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_EXPORTS"])
    return {name.value for names in table.values for name in ast.walk(names)
            if isinstance(name, ast.Constant)}


# the module protocol of `ttlab/__init__.py` (PEP 562): Python calls
# these itself, so no node of the package names them
MODULE_PROTOCOL = {"__getattr__", "__dir__"}


def module_bindings(tree, modules):
    """Names that a module binds to a module of the package, as
    `from . import linalg` or `import ttlab.linalg as la` do."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "ttlab" or (node.level == 1 and node.module is None)):
            bound.update(a.asname or a.name for a in node.names if a.name in modules)
        elif isinstance(node, ast.Import):
            bound.update(a.asname for a in node.names
                         if a.asname and a.name.startswith("ttlab."))
    return bound


def used_names(trees):
    """The names that the modules of the package, `ttlab/__init__.py`
    aside, use.

    A use is a bare name, an imported name, or an attribute of a name
    bound to a module of the package (`linalg.rank`); an attribute of
    anything else, such as a method call `q.area()`, is not one.
    """
    uses = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        bound = module_bindings(tree, trees)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.add(node.id)
            elif isinstance(node, ast.alias):
                uses.add(node.name)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in bound):
                uses.add(node.attr)
    return uses


def unreferenced_definitions(trees):
    """(module, name) of each module-level def or class that no other
    node of the package uses (see used_names) and `ttlab/__init__.py`
    does not export."""
    kept = exported_names(trees["__init__"]) | used_names(trees)
    found = []
    for module, tree in trees.items():
        known = kept | MODULE_PROTOCOL if module == "__init__" else kept
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name not in known:
                    found.append((module, node.name))
    return found


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions(package_trees()) == []


def test_the_scan_sees_an_unused_definition():
    trees = package_trees()
    trees["linalg"].body.append(ast.parse("def only_for_tests():\n    pass\n").body[0])
    assert ("linalg", "only_for_tests") in unreferenced_definitions(trees)


def test_the_scan_sees_a_definition_dropped_from_the_export_table():
    trees = package_trees()
    for node in ast.walk(trees["__init__"]):
        if isinstance(node, ast.Constant) and node.value == "classify_pants_torus":
            node.value = "not_a_definition"
    assert ("classify", "classify_pants_torus") in unreferenced_definitions(trees)


def test_the_scan_sees_an_unused_definition_in_the_package_init():
    trees = package_trees()
    trees["__init__"].body.append(ast.parse("def __helper__():\n    pass\n").body[0])
    assert unreferenced_definitions(trees) == [("__init__", "__helper__")]


def test_the_scan_does_not_count_a_method_call():
    trees = package_trees()
    trees["linalg"].body.append(ast.parse("def only_as_method():\n    pass\n").body[0])
    trees["cover"].body.append(ast.parse("obj.only_as_method()\n").body[0])
    assert ("linalg", "only_as_method") in unreferenced_definitions(trees)


def test_the_scan_counts_an_attribute_of_a_package_module():
    trees = package_trees()
    trees["linalg"].body.append(ast.parse("def reached_by_module():\n    pass\n").body[0])
    trees["spin"].body.extend(ast.parse("from ttlab import linalg as la\n"
                                        "la.reached_by_module()\n").body)
    assert ("linalg", "reached_by_module") not in unreferenced_definitions(trees)


def library_only_names(readme):
    """The names that the README lists as library API beyond what the
    commands use: the code names of the sentence that says so."""
    sentence = readme.split("Besides what the commands use,", 1)[1]
    return set(re.findall(r"`(\w+)`", sentence.split(".", 1)[0]))


def test_the_readme_lists_the_exports_no_module_uses():
    trees = package_trees()
    unused = exported_names(trees["__init__"]) - used_names(trees)
    assert library_only_names(README.read_text(encoding="utf-8")) == unused


def writes_output(node):
    """Whether a node writes stdout: `sys.stdout`, or `print` without
    `file=`; or opens a file for writing: `open` with a mode that is
    not plain reading."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "stdout" and isinstance(node.value, ast.Name)
                and node.value.id == "sys")
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id == "print":
        return all(keyword.arg != "file" for keyword in node.keywords)
    if node.func.id == "open":
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        return any(not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
                   for mode in modes)
    return False


def output_writers(trees):
    """(module, innermost enclosing function) of each output write in
    the package; the function is None at module level."""
    found = set()

    def visit(module, node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if writes_output(node):
            found.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(module, child, owner)

    for module, tree in trees.items():
        visit(module, tree, None)
    return sorted(found, key=str)


def test_main_is_the_one_output_writer():
    assert output_writers(package_trees()) == [("cli", "main")]


def test_the_scan_sees_a_planted_write():
    trees = package_trees()
    trees["linalg"].body.extend(ast.parse(
        "def chatty():\n    print('pivot')\n"
        "def saver(path):\n    return open(path, mode='a')\n"
        "def quiet(path):\n    print('pivot', file=sys.stderr)\n"
        "    return open(path, 'rb')\n").body)
    found = output_writers(trees)
    assert ("linalg", "chatty") in found
    assert ("linalg", "saver") in found
    assert ("linalg", "quiet") not in found


# the command line chooses the arithmetic of a command in one rule: the
# tables beside cli._build_parser, which cli._load applies
MODE_NAMES = {"EXACT", "NUMERIC"}
MODE_RULE = {"_EXACT_ONLY", "_WRITES_SPEC", "_load", "_build_parser"}


def statement_names(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def mode_deciders(tree):
    """The line of each module-level statement outside the mode rule
    that names EXACT or NUMERIC, with the names it defines."""
    return sorted(
        (node.lineno, sorted(statement_names(node)))
        for node in tree.body
        if not statement_names(node) & MODE_RULE
        and any(isinstance(n, ast.Name) and n.id in MODE_NAMES
                for n in ast.walk(node)))


def test_the_command_line_decides_the_mode_in_one_rule():
    assert mode_deciders(package_trees()["cli"]) == []


def test_the_scan_sees_a_planted_mode_decision():
    tree = package_trees()["cli"]
    tree.body.extend(ast.parse(
        "def cmd_sneaky(args):\n    return replace(_load(args), mode=EXACT)\n"
        "DEFAULT_MODE = NUMERIC\n"
        "def cmd_plain(args):\n    return _load(args)\n").body)
    found = [names for _, names in mode_deciders(tree)]
    assert found == [["cmd_sneaky"], ["DEFAULT_MODE"]]


# a surface converts and checks its own numbers in its constructor;
# _shear converts its time before the product that could overflow
CONVERTERS = ["FlatTwistSurface", "_shear"]


def convert_callers(tree):
    """The module-level definitions of a module that call _convert."""
    return sorted(
        name for node in tree.body for name in statement_names(node)
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "_convert" for n in ast.walk(node)))


def test_only_the_surface_converts_its_numbers():
    assert convert_callers(package_trees()["surface"]) == CONVERTERS


def test_the_scan_sees_a_planted_conversion():
    tree = package_trees()["surface"]
    tree.body.extend(ast.parse(
        "def checked_twice(q):\n"
        "    return [_convert(h, q.mode, 'height') for h in q.heights]\n"
        "def untouched(q):\n    return q.heights\n").body)
    assert convert_callers(tree) == ["FlatTwistSurface", "_shear", "checked_twice"]

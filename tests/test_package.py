"""The package's lazy exports, what the CLI loads, and no dead definitions."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

import polyshare

SRC = os.path.dirname(os.path.dirname(os.path.abspath(polyshare.__file__)))
ROOT = os.path.dirname(SRC)
MIDDLE = os.path.join(SRC, "polyshare", "data", "table2_middle.json")
MODULES = ("core", "lattice", "polymatroid", "entropy", "inequalities", "matroid",
           "secret_sharing", "reproduce")
EXPORTS = [(module, name) for module, names in polyshare._EXPORTS.items() for name in names]
# what reaches the package from outside: the CLI, the reproduction, the demos,
# the acceptance test and the benchmark workloads
REACH_ROOTS = ("src/polyshare/cli.py", "src/polyshare/reproduce.py", "demos/*.py",
               "tests/test_acceptance.py", "perfbench/workloads/*.py")


def parse(path) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read())


def loaded_after(code: str) -> set[str]:
    """Names in sys.modules once a fresh interpreter has run ``code``."""
    probe = f"{code}\nimport sys\nprint(*sys.modules, file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


@pytest.mark.parametrize("code", ["import polyshare", "import polyshare.cli"])
def test_import_loads_no_module_and_no_numpy(code):
    loaded = loaded_after(code)
    assert "numpy" not in loaded
    assert not {f"polyshare.{m}" for m in MODULES} & loaded


def test_dual_loads_only_what_it_runs():
    loaded = loaded_after(f"from polyshare.cli import main\nassert main(['dual', '--in', {MIDDLE!r}]) == 0")
    assert {"polyshare.core", "polyshare.polymatroid"} <= loaded
    skipped = {"entropy", "inequalities", "matroid", "secret_sharing", "reproduce"}
    assert not {f"polyshare.{m}" for m in skipped} & loaded


@pytest.mark.parametrize("module, name", EXPORTS)
def test_export_is_the_object_of_its_module(module, name):
    value = getattr(polyshare, name)
    assert value is getattr(importlib.import_module(f"polyshare.{module}"), name)
    assert vars(polyshare)[name] is value  # kept after the first lookup


def test_dir_and_star_import_list_exactly_the_table():
    names = sorted(name for _, name in EXPORTS)
    assert len(set(names)) == len(names)
    assert dir(polyshare) == names
    namespace = {}
    exec("from polyshare import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == names


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polyshare.no_such_name
    assert not hasattr(polyshare, "distribution_from_json")  # in a module, not exported


def test_every_public_definition_is_exported_or_used():
    """A public module-level function or class is exported or referenced
    elsewhere in the package: by name, attribute, import or string."""
    defined, used = [], set()
    for path in sorted(glob.glob(os.path.join(SRC, "polyshare", "*.py"))):
        tree = parse(path)
        defined += [
            (os.path.basename(path), node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    exported = {name for _, name in EXPORTS}
    assert [(f, name) for f, name in defined if name not in exported | used] == []


def test_private_attributes_are_read_only_by_their_own_module():
    """A ``_``-prefixed, non-dunder attribute read through anything but
    ``self`` is one that the same module uses on ``self``: no module reads
    another's private state."""
    foreign = []
    for path in sorted(glob.glob(os.path.join(SRC, "polyshare", "*.py"))):
        tree = parse(path)
        attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        mine = [isinstance(a.value, ast.Name) and a.value.id == "self" for a in attributes]
        on_self = {a.attr for a, on in zip(attributes, mine) if on}
        foreign += [
            (os.path.basename(path), a.lineno, a.attr)
            for a, on in zip(attributes, mine)
            if not on and isinstance(a.ctx, ast.Load) and a.attr.startswith("_")
            and not a.attr.endswith("__") and a.attr not in on_self
        ]
    assert foreign == []


def test_only_core_asks_what_a_number_is():
    """core.integer and core.real are the one number rule: no other module
    asks isinstance whether a value is a real, an integral or a boolean."""
    rule = {"numbers.Real", "numbers.Integral", "bool", "np.bool_"}
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "polyshare", "*.py"))):
        if os.path.basename(path) == "core.py":
            continue
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = node.args[1]
                named = {ast.unparse(k) for k in getattr(kinds, "elts", [kinds])}
                found += [(os.path.basename(path), node.lineno, name) for name in sorted(named & rule)]
    assert found == []


def read_names(tree) -> set[str]:
    """Names a syntax tree reads: bare names, attributes and imported names."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_export_is_reached():
    """The reach rule: every exported name is read by REACH_ROOTS or timed by
    perfbench's LAYERS, or read in the body of a package function or class
    that is reached, transitively."""
    bodies = {}
    for path in glob.glob(os.path.join(SRC, "polyshare", "*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
    reached = set()
    for pattern in REACH_ROOTS:
        for path in glob.glob(os.path.join(ROOT, pattern)):
            reached |= read_names(parse(path))
    harness = parse(os.path.join(ROOT, "perfbench", "harness.py"))
    layers = next(node.value for node in harness.body if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "LAYERS")
    reached |= {name for names in ast.literal_eval(layers).values() for name in names}
    todo = list(reached)
    while todo:
        for node in bodies.get(todo.pop(), ()):
            new = read_names(node) - reached
            reached |= new
            todo += new
    assert sorted({name for _, name in EXPORTS} - reached) == []

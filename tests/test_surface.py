"""The package carries only what runs: no module under src/opmor, scripts/
or tests/ imports a name it never uses, every top-level function and class in
src/opmor is reached from the package itself, the scripts or the benchmark,
and src/opmor imports nothing but the standard library, numpy and itself.
Only jsonio, the file formats' one encoder and decoder, and config, which
hashes the raw bytes it parses, import json; only jsonio.dump_json and
cli._write_csv, one writer per output format, open a file for writing.
A definition that only tests call belongs in tests/ (see tests/oracles.py).

References are read with ast: names, attribute names, imported names and
the words of string constants other than docstrings, since the benchmark's
tracer binds layers by strings such as "PoleFactorModel.apply_tf". A mention
in prose is not a reference."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "opmor").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the benchmark's own test pins counts; it is not a caller of the package
BENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_bench.py")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def docstrings(tree):
    """The string constants that are docstrings of the module, its classes
    and its functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(body[0].value)
    return found


def references(tree):
    """(word, line) of every reference in tree."""
    skip = docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node not in skip):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno


def imported_names(tree):
    """(bound name, line) of every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    unused = []
    for path in PACKAGE + SCRIPTS + TESTS:
        tree = parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in imported_names(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_definition_is_reached_outside_tests():
    refs = {path: list(references(parse(path))) for path in PACKAGE + SCRIPTS + BENCH}
    unreached = []
    for path in PACKAGE:
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(word == node.name and (other != path or line not in own)
                       for other, words in refs.items() for word, line in words):
                unreached.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unreached, "defined in src/ but only tests reach:\n" + "\n".join(unreached)


def test_package_needs_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "opmor"}
    foreign = []
    for path in PACKAGE:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{path.relative_to(ROOT)}:{node.lineno} {root}"
                        for root in roots if root not in allowed]
    assert not foreign, "imports beyond the stdlib and numpy:\n" + "\n".join(foreign)


def test_only_jsonio_and_config_import_json():
    importers = sorted(path.name for path in PACKAGE
                       for node in ast.walk(parse(path))
                       if (isinstance(node, ast.Import) and any(a.name == "json" for a in node.names))
                       or (isinstance(node, ast.ImportFrom) and node.module == "json"))
    assert importers == ["config.py", "jsonio.py"]


def write_openers(tree):
    """The name of the innermost function around each call in tree that
    opens a file for writing: an ``open`` (or ``x.open``) call with a mode
    string holding w, a, x or +, positional or ``mode=``."""
    defs = [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "open"
                                                or getattr(node.func, "attr", None) == "open")):
            continue
        modes = [arg.value for arg in node.args + [kw.value for kw in node.keywords
                                                   if kw.arg == "mode"]
                 if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                 and re.fullmatch(r"[rwaxbt+]+", arg.value)]
        if any(set(mode) & set("wax+") for mode in modes):
            around = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
            yield max(around, key=lambda d: d.lineno).name if around else "<module>"


def test_one_writer_per_file_format():
    writers = sorted(f"{path.stem}.{name}" for path in PACKAGE
                     for name in write_openers(parse(path)))
    assert writers == ["cli._write_csv", "jsonio.dump_json"]

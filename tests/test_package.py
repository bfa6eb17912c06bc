"""Package-level checks: certificates are explicit raises that `python -O`
keeps, the runtime imports only the standard library, no module below
the CLI calls `float`, a CLI command
loads none of `dataclasses`, `inspect`, `argparse`, `gettext` and
`locale`, nor `typing` under `python -S`, every exported name has a
caller in the package or a mention in the README, every result field and
assigned attribute is read in the package or named in the README, the
JSON-integer test is written once, a `Field` is built only by
`make_field`, no CLI command body catches an
exception (`main` alone maps failures to exit codes), the README's library
and CLI quick starts run as written, and every name the benchmark's tracer
wraps still exists."""

import ast
import importlib
import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted((ROOT / "src" / "datex").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_package_imports_only_the_standard_library():
    """The runtime stays stdlib-only: every import in src/datex names a
    standard-library module or datex itself (relative imports included)."""
    found = []
    for path in sorted((ROOT / "src" / "datex").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names
                      and name.split(".")[0] != "datex"]
    assert not found, f"imports outside the standard library: {found}"


def test_nothing_below_the_cli_computes_in_floating_point():
    """Every quantity the library computes is exact: no module but cli.py
    calls `float`, and cli.py only to write the `*_float` twins of exact
    values and the trace's floats."""
    found = []
    for path in sorted((ROOT / "src" / "datex").glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "float"]
    assert not found, f"floating-point calls below the CLI: {found}"


def test_cli_command_loads_no_dataclasses_inspect_or_argparse():
    """Every CLI command runs in a fresh interpreter, and importing
    `dataclasses` (which imports `inspect`, and that `ast`, `dis` and
    `tokenize`) plus generating the decorated classes' methods costs
    more start-up than most commands compute; src/datex uses plain
    classes and `collections.namedtuple` records instead.  `argparse`
    (with the `gettext` and `locale` it loads) and building its parsers
    cost a command about 8 ms more; `cli.main` reads argv with one flag
    table instead."""
    assert _modules_after_oracle([], {"dataclasses", "inspect", "argparse",
                                      "gettext", "locale"}) == "0 []"


def test_cli_command_under_python_s_loads_no_typing():
    """`typing` is a few milliseconds of a command's import, and src/datex
    needs it for nothing at run time: annotations are never evaluated,
    records are `collections.namedtuple`s and the abstract types come
    from `collections.abc`.  `-S` skips the host's site-packages, whose
    `.pth` files may import `typing` on their own."""
    assert _modules_after_oracle(["-S"], {"typing"}) == "0 []"


def _modules_after_oracle(flags, names):
    """`main(['oracle', example3])`'s exit code and which of `names` are
    loaded after it, printed by a fresh interpreter run with `flags`."""
    example = ROOT / "instances" / "example3.json"
    code = ("import sys, datex.cli; "
            f"code = datex.cli.main(['oracle', {str(example)!r}]); "
            f"print(code, sorted(set({sorted(names)!r}) & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return out.stdout.splitlines()[-1]


def _defines(stmt, name):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = (stmt.targets if isinstance(stmt, ast.Assign) else
               [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _names_used(tree, skip=None):
    """Every identifier a module reads, imports or looks up as an
    attribute, outside the top-level statement that defines `skip`."""
    used = set()
    for stmt in tree.body:
        if skip is not None and _defines(stmt, skip):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_exported_names_have_a_caller_or_a_readme_mention():
    """The public API is what the package itself and the README use: a
    name in a module's __all__ whose only callers are tests does not
    belong in src/datex."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "datex").glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for module, tree in trees.items():
        exported = [ast.literal_eval(stmt.value) for stmt in tree.body
                    if _defines(stmt, "__all__")]
        for name in (exported[0] if exported else []):
            if any(name in _names_used(other, name if mod == module else None)
                   for mod, other in trees.items()):
                continue
            if not re.search(rf"\b{re.escape(name)}\b", readme):
                unused.append(f"{module}.{name}")
    assert not unused, f"exported but used only by tests: {unused}"


def _namedtuple_fields(base):
    """The field names of a `namedtuple("Name", "a b c")` class base, else
    none.  A field list that is not one string literal fails loudly."""
    if not (isinstance(base, ast.Call) and "namedtuple" in (
            getattr(base.func, "id", None), getattr(base.func, "attr", None))):
        return []
    return base.args[1].value.split()


def _assigned_attributes(tree):
    """(class, attribute) for every namedtuple field and every attribute a
    class assigns: `self.a = ...` (tuple targets included) and
    `self.__dict__.update(a=...)`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for base in cls.bases:
            yield from ((cls.name, f) for f in _namedtuple_fields(base))
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                yield cls.name, node.attr
            elif isinstance(node, ast.Call) and isinstance(node.func,
                                                           ast.Attribute):
                func = node.func
                if (func.attr == "update"
                        and isinstance(func.value, ast.Attribute)
                        and func.value.attr == "__dict__"):
                    yield from ((cls.name, kw.arg) for kw in node.keywords)


def test_result_fields_are_read_in_the_package_or_named_in_the_readme():
    """Every namedtuple field and every attribute a class in src/datex
    assigns is read as an attribute somewhere in src/datex, or the README
    names it as `Class.attribute`, a public result field; state that only
    tests read does not belong in the package.  The probe matches names,
    not owners: an attribute that shares its name with a method read
    elsewhere (`values` and `dict.values()`, say) passes unread, so such a
    field needs checking by hand."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "datex").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = sorted({f"{cls}.{attr}" for tree in trees
                     for cls, attr in _assigned_attributes(tree)
                     if attr not in read
                     and not re.search(rf"\b{cls}\.{attr}\b", readme)})
    assert not unread, f"assigned but read only by tests: {unread}"


def _isinstance_types(node):
    """The type names an `isinstance(x, T)` call tests, else none."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return set()
    arg = node.args[1]
    return {e.id for e in (arg.elts if isinstance(arg, ast.Tuple) else [arg])
            if isinstance(e, ast.Name)}


def _int_and_bool_tests(node, func):
    """(function, line) of each outermost boolean expression below `node`
    that calls isinstance against both int and bool."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    if isinstance(node, ast.BoolOp):
        tested = set().union(*map(_isinstance_types, ast.walk(node)))
        if {"int", "bool"} <= tested:
            yield func, node.lineno
            return
    for child in ast.iter_child_nodes(node):
        yield from _int_and_bool_tests(child, func)


def test_json_integer_test_is_written_once():
    """The JSON-integer test, an int that is not a bool, has one
    implementation, `gf.is_int`; every other reader of an outside
    integer calls it.  A check that tests bool and int in separate
    statements, for a message of its own (`cli._frac`), is not flagged."""
    sites = []
    for path in sorted((ROOT / "src" / "datex").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [f"{path.stem}.{func}:{line}"
                  for func, line in _int_and_bool_tests(tree, "<module>")]
    assert [site.split(":")[0] for site in sites] == ["gf.is_int"], sites


def _field_constructions(node, func):
    """(function, line) of each call of a name or attribute `Field`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    if isinstance(node, ast.Call) and "Field" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        yield func, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _field_constructions(child, func)


def test_frozen_records_have_one_idiom():
    """A `_Frozen` record sets its attributes with one
    `self.__dict__.update(...)`; nothing in src/datex writes through
    `object.__setattr__`."""
    found = []
    for path in sorted((ROOT / "src" / "datex").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "__setattr__"
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "object"]
    assert not found, f"object.__setattr__ calls: {found}"


def test_fields_are_built_only_by_make_field():
    """`make_field` returns one object per field, so identity is field
    equality; a `Field` built anywhere else would be unequal to its twin."""
    sites = []
    for path in sorted([*(ROOT / "src" / "datex").glob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [f"{path.stem}.{func}:{line}"
                  for func, line in _field_constructions(tree, "<module>")]
    assert [site.split(":")[0] for site in sites] == ["gf.make_field"], sites


def test_cli_commands_leave_failures_to_main():
    """Each `_cmd_*` body reads, computes and emits; `main` alone turns an
    exception into an exit code and a stderr line.  A try/finally that
    only closes a file has no handler and passes."""
    path = ROOT / "src" / "datex" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{func.name}:{node.lineno}" for func in tree.body
             if isinstance(func, ast.FunctionDef)
             and func.name.startswith("_cmd_")
             for node in ast.walk(func) if isinstance(node, ast.ExceptHandler)]
    assert not found, f"command bodies that catch exceptions: {found}"


def test_readme_library_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 0 1 1"
    assert lines[-1] == "True"


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    """Each `datex ...` line of the README's CLI quick start exits 0, run in
    order in a copy of instances/ (simulate reads codegen's scheme.json)."""
    from datex.cli import main

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("datex ")]
    assert [argv[1] for argv in commands] == [
        "oracle", "verify", "solve", "codegen", "simulate"]
    shutil.copytree(ROOT / "instances", tmp_path / "instances")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "solution.json").is_file()


def test_every_traced_site_exists():
    """bench/spans.py wraps names inside datex; a refactor that drops one
    fails here instead of in a traced benchmark run.  The file is only
    read: no wrapper is installed."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from datex import greedy
    from datex.gf import Matrix
    from datex.source import SourceModel

    sites = [(importlib.import_module(mod), attr)
             for mod, attr, _, _ in spans._SITES]
    sites += [(Matrix, attr) for attr, _ in spans._MATRIX_METHODS]
    sites += [(SourceModel, "joint_entropy_scaled"), (greedy, "_iter_cuts")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if attr not in owner.__dict__]
    assert not missing, f"traced sites gone from datex: {missing}"

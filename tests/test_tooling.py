import ast
import gc
import importlib.util
import sys
from pathlib import Path

import botguard
from botguard.config import build_run_config, parse_flat_config

PACKAGE_DIR = Path(botguard.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a safety check written as one
    # silently disappears; the package must raise explicitly instead
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_tracer_wraps_and_restores_every_target():
    # the benchmark's tracer wraps package names; one the package no longer
    # has fails here rather than in a benchmark run
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in tracing.TARGETS]
    callbacks = list(gc.callbacks)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.remove()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert gc.callbacks == callbacks


def test_package_imports_only_stdlib_numpy_and_itself():
    # numpy is the package's one third-party dependency, and it is imported
    # only inside the two functions that call it (see the next test), so
    # detect, evaluate and the detector never load it
    allowed = set(sys.stdlib_module_names) | {"numpy", "botguard"}
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in allowed]
    assert found == []


def test_numpy_is_imported_only_inside_generate_and_the_oracle():
    # the trace generator and the brute-force oracle are the only callers of
    # numpy; an import anywhere else would load it in detect, evaluate or a
    # detector process
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(name.partition(".")[0] == "numpy" for name in names):
                found.add(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), (path.stem,))
    assert found == {"simulate.generate", "stream.brute_force_outliers"}


def test_package_modules_use_every_name_they_import():
    # an import nothing reads is dead code; __init__ imports to re-export
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds `a`
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read]
    assert found == []


def test_functions_read_every_local_they_assign():
    # a local that is assigned and never read is dead code, or a computed
    # value a test forgot to assert; a name starting with _ is unread on purpose
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    found = []
    for path in sorted([*PACKAGE_DIR.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # the function's own scope: its body, not the scopes nested in it
            stored, outer, stack = {}, set(), list(func.body)
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    outer.update(node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                if not isinstance(node, scopes):
                    stack.extend(ast.iter_child_nodes(node))
            # a nested function that reads a local reads it too
            read = {node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            found += [f"{path.name}:{line} {name}" for name, line in stored.items()
                      if not (name in read or name in outer or name.startswith("_"))]
    assert found == []


def test_every_dataclass_field_is_read():
    """A dataclass field of the package that is written and never read is
    dead state.  A field counts as read when an attribute load in the package
    or the tests has its name (``x.name``).  The match is by name alone, not
    by the type of ``x``, so a same-named attribute of another class counts
    too.  A ``ClassVar`` is a constant, not a field, and is not checked."""
    def is_dataclass(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        return (isinstance(decorator, ast.Name) and decorator.id == "dataclass"
                or isinstance(decorator, ast.Attribute)
                and decorator.attr == "dataclass")

    def is_class_var(annotation):
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        return (isinstance(annotation, ast.Name) and annotation.id == "ClassVar"
                or isinstance(annotation, ast.Attribute)
                and annotation.attr == "ClassVar")

    fields, read = [], set()
    for path in sorted([*PACKAGE_DIR.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        if path.parent != PACKAGE_DIR:
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(map(is_dataclass,
                                                         cls.decorator_list)):
                fields += [(cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)
                           and not is_class_var(node.annotation)]
    assert len(fields) > 20
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []


def test_package_modules_import_no_private_name_from_each_other():
    # an underscore name is private to its module; one another module needs
    # belongs to the API of the module that defines it
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").partition(".")[0] != "botguard":
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert found == []


def test_readme_config_example_is_accepted():
    # the README's example config names only keys the package accepts
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    values = parse_flat_config(example)
    assert values
    build_run_config(values)

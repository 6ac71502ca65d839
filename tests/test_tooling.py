import ast
import gc
import importlib
import importlib.util
import sys
from pathlib import Path

import botguard
from botguard.config import build_run_config, parse_flat_config

PACKAGE_DIR = Path(botguard.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def test_package_is_imported_from_this_checkout():
    # pytest puts src/ on the path, so the tests never run an installed copy
    assert PACKAGE_DIR.resolve() == (ROOT / "src" / "botguard").resolve()


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


def test_every_lazy_export_is_its_home_modules_object():
    # the package imports a re-exported name on first use, so a name the map
    # sends to the wrong module would otherwise fail only when it is read
    exports = botguard._EXPORTS
    assert len(exports) > 30
    found = [name for name, module in exports.items()
             if getattr(botguard, name) is not getattr(
                 importlib.import_module(f"botguard.{module}"), name)]
    assert found == []
    assert set(exports) <= set(dir(botguard))


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_wraps_and_restores_every_target():
    # the benchmark's tracer wraps package names; one the package no longer
    # has fails here rather than in a benchmark run
    tracing = load_tracing()
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


def test_tracer_sees_replays_admission_gates():
    # replay must reach the gates through the names the tracer wraps, or a
    # traced chain books the credential work under its caller's span
    from botguard import (CaptchaGate, CredentialStore, DetectionPipeline,
                          Detector, DetectorParams, ScenarioConfig, generate,
                          pipeline)
    flows = list(generate(ScenarioConfig(
        seed=1, n_flows=100, n_legit_sources=4, n_bot_sources=1)))
    gates = DetectionPipeline(
        Detector(DetectorParams(radius=1.0, neighbor_threshold=3, window_span=16.0)),
        CaptchaGate(seed=0), CredentialStore(salt_seed=0))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        records = list(pipeline.replay_flows(flows, gates))
    finally:
        tracer.remove()
    assert len(records) >= len(flows)
    assert tracer.calls["pipeline.admit"] >= 1
    assert tracer.calls["pipeline.credentials"] >= 1


def test_package_parses_as_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10.  This checks syntax
    # only: a call to a standard-library API added after 3.10 still passes
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


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


def test_every_record_field_is_read():
    """A record field of the package that is written and never read is dead
    state.  The fields are the names in a package class's ``__slots__``
    tuple and in the field string of a ``namedtuple`` call.  A field counts
    as read when an attribute load in the package or the tests has its name
    (``x.name``).  The match is by name alone, not by the type of ``x``, so
    a same-named attribute of another class counts too.  A class constant
    such as ``FightBackEvent.payload_tag`` is not a field and is not
    checked."""
    def is_namedtuple(call):
        func = call.func
        return (isinstance(func, ast.Name) and func.id == "namedtuple"
                or isinstance(func, ast.Attribute) and func.attr == "namedtuple")

    fields, read = [], set()
    for path in sorted([*PACKAGE_DIR.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        if path.parent != PACKAGE_DIR:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields += [(node.name, name.value) for stmt in node.body
                           if isinstance(stmt, ast.Assign)
                           and [t.id for t in stmt.targets
                                if isinstance(t, ast.Name)] == ["__slots__"]
                           for name in stmt.value.elts]
            elif isinstance(node, ast.Call) and is_namedtuple(node):
                cls, names = (arg.value for arg in node.args[:2])
                fields += [(cls, name) for name in names.replace(",", " ").split()]
    assert len(fields) > 20
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []


def test_every_public_function_is_read():
    """A public module-level function or class method of the package whose
    name nothing in the package or the benchmark reads is API that nothing
    uses.  A read is a name or attribute load, or a string constant in
    ``bench/``, where the tracer names what it wraps.  The match is by name
    alone.  ``Detector.live_ids`` is kept for the tests: the oracle tests
    read the live window through it."""
    kept = {"Detector.live_ids"}
    defined, read = [], set()
    for path in sorted([*PACKAGE_DIR.glob("*.py"), *(ROOT / "bench").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_bench = path.parent != PACKAGE_DIR
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (in_bench and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                read.add(node.value)
        if in_bench:
            continue
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append(("", top.name))
            elif isinstance(top, ast.ClassDef):
                defined += [(f"{top.name}.", node.name) for node in top.body
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert len(defined) > 50
    assert [f"{owner}{name}" for owner, name in defined
            if not name.startswith("_") and name not in read
            and f"{owner}{name}" not in kept] == []


def test_stream_functions_read_no_label_member():
    # a Label.NAME read costs about 100 ns more than a module global, so the
    # detector's functions return the module constants OUTLIER, INLIER and
    # SAFE_INLIER instead
    path = PACKAGE_DIR / "stream.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert functions
    found = {f"stream.py:{node.lineno} {func.name}"
             for func in functions for node in ast.walk(func)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "Label"}
    assert found == set()


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


def test_no_module_level_name_is_assigned_in_two_modules():
    # a constant two modules each define can drift apart; one module declares
    # it and the other reads it from there
    homes = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        homes.setdefault(name.id, set()).add(path.name)
    assert len(homes) > 20
    assert {name: sorted(files) for name, files in homes.items()
            if len(files) > 1} == {}


def test_readme_config_example_is_accepted():
    # the README's example config names only keys the package accepts
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    values = parse_flat_config(example)
    assert values
    build_run_config(values)


def test_output_files_are_written_by_one_writer():
    # every line file is written by simulate.write_lines and the report by
    # metrics.write_report, so no command writes an output file itself
    calls, reads = set(), set()

    def name_of(node):
        if isinstance(node, ast.Name):
            return node.id
        return node.attr if isinstance(node, ast.Attribute) else None

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name_of(child.func) == "atomic_output":
                calls.add(scope)
            elif (isinstance(child, (ast.Name, ast.Attribute))
                  and isinstance(child.ctx, ast.Load)
                  and name_of(child) == "LINES_PER_WRITE"):
                reads.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
              path.stem)
    assert calls == {"simulate.write_lines", "metrics.write_report"}
    assert reads == {"simulate.write_lines"}


def test_settings_are_checked_only_by_check_number_and_check_count():
    # a record that holds a numeric setting takes it through check_number or
    # check_count, so it neither tests finiteness nor a type itself
    methods = {"stream": ("DetectorParams", "__init__"),
               "simulate": ("ScenarioConfig", "validate"),
               "config": ("RunConfig", "validate"),
               "pipeline": ("DetectionPipeline", "__init__")}
    found, checked = [], set()
    for module, (cls, method) in methods.items():
        path = PACKAGE_DIR / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        body = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == cls)
        function = next(node for node in body.body
                        if isinstance(node, ast.FunctionDef) and node.name == method)
        for node in ast.walk(function):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name in ("is_finite", "isfinite", "int", "float", "bool"):
                found.append(f"{cls}.{method}: {name}")
            if name in ("check_number", "check_count"):
                checked.add(cls)
    assert found == []
    assert checked == {cls for cls, _ in methods.values()}

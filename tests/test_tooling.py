import ast
import gc
import importlib.util
from pathlib import Path

import botguard

PACKAGE_DIR = Path(botguard.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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

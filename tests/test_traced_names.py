"""The benchmark's tracer finds every function it wraps.

``bench/tracing.py`` wraps the functions named in its ``LAYERS`` table by
looking each one up in its ``bootperc`` module, so a renamed function
breaks only a traced benchmark run.  This test reads the table from the
file's source, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    [layers] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    return [(module, name) for module, names in ast.literal_eval(layers).items()
            for name in names]


@pytest.mark.parametrize("module,name", traced_names(),
                         ids=[f"{m}.{n}" for m, n in traced_names()])
def test_traced_name_is_a_function_of_its_module(module, name):
    home = importlib.import_module(f"bootperc.{module}")
    function = getattr(home, name, None)
    assert callable(function), f"bootperc.{module} has no function {name!r}"
    assert function.__module__ == home.__name__

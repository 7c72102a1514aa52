"""The bench tracer wraps package functions by name; every name it lists
must still resolve, or a traced run fails.  bench/layers.py is read as
text, so that nothing is imported from or written to bench/."""

import ast
import importlib
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _literal(name):
    tree = ast.parse(LAYERS_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("%s not found in %s" % (name, LAYERS_PY))


def test_every_traced_layer_resolves():
    builders = _literal("FIELD_BUILDERS")
    for name in _literal("LAYERS"):
        module, _, qual = name.partition(".")
        mod = importlib.import_module("affgebroid." + module)
        if name in builders:
            assert callable(getattr(mod, builders[name])), name
        elif "." in qual:
            cls_name, meth = qual.split(".")
            # the tracer replaces the method in the class's own dict
            assert callable(vars(getattr(mod, cls_name))[meth]), name
        else:
            assert callable(getattr(mod, qual)), name

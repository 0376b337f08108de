"""The benchmark's span table names library attributes that still exist,
so a rename in the library fails here rather than in a benchmark run;
and every library function, class and method is used by the library
itself or traced by that table, so no helper lives on for the tests
alone."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SRC = ROOT / "src" / "frictiondual"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_traced_attributes_exist(monkeypatch):
    spans = _load_spans(monkeypatch)
    missing = [name for name, owner, attr in spans.TRACED
               if not callable(getattr(owner, attr, None))]
    missing += [name for name, cls, attr in spans.TRACED_METHODS
                if attr not in vars(cls)]
    assert missing == []


def test_every_library_definition_is_used_by_the_library_or_traced(monkeypatch):
    # by name, over the source's syntax trees: a Name, an Attribute or an
    # import of that name anywhere in the package counts as a use, and a
    # docstring that names it does not.  Module-level functions and
    # classes and every method but the dunders are checked
    defined, used = [], {attr for _, _, attr in _load_spans(monkeypatch).TRACED}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
    assert [where for where, name in defined if name not in used] == []

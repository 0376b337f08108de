"""The benchmark's span table names library attributes that still exist,
so a rename in the library fails here rather than in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_attributes_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = [name for name, owner, attr in spans.TRACED
               if not callable(getattr(owner, attr, None))]
    missing += [name for name, cls, attr in spans.TRACED_METHODS
                if attr not in vars(cls)]
    assert missing == []

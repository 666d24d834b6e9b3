"""The benchmark's text generator, for tests that need benchmark-shaped text.

``bench/`` is a directory of scripts, not a package, and its modules import
each other by bare name (``from textgen import TextShape``).  They are loaded
here by path under private names, so nothing of ``bench/`` stays importable
as ``textgen`` / ``workloads`` once this module has been imported.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import ModuleType

__all__ = ["TextGenerator", "TextShape", "TEXT_HEAVY", "NEWS", "WORKLOADS"]

_BENCH = Path(__file__).resolve().parents[2] / "bench"


def _load(name: str) -> ModuleType:
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


_textgen = _load("textgen")
_shadowed = sys.modules.get("textgen")
sys.modules["textgen"] = _textgen
try:
    _workloads = _load("workloads")
finally:
    if _shadowed is None:
        del sys.modules["textgen"]
    else:
        sys.modules["textgen"] = _shadowed

TextGenerator = _textgen.TextGenerator
TextShape = _textgen.TextShape
#: the benchmark's workloads by name (sizes, fan-out, window)
WORKLOADS = _workloads.BY_NAME
#: the shapes of the ``text_heavy`` workload and of the five news-like ones
TEXT_HEAVY = WORKLOADS["text_heavy"].shape
NEWS = WORKLOADS["alerts_steady"].shape

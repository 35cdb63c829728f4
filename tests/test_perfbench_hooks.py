"""The benchmark under perfbench/ times the program by wrapping public names
from outside; a renamed or deleted target silently drops its per-layer
metrics.  This guard reads the benchmark's hook list and checks that every
target still exists."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def test_every_hook_target_exists():
    assert tracing.Hooks(tracing.Tracer()).missing == []

"""The benchmark under perfbench/ times the program by wrapping public names
from outside; a renamed, deleted or bypassed target silently drops its
per-layer metrics.  These guards check that every hook target still exists,
and that a traced pass over the seed-1 cases fires every hook each metric
needs on each workload."""

import pathlib
import sys

import pytest

from helpers import seed1_pass

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_hook_target_exists():
    assert tracing.Hooks(tracing.Tracer()).missing == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_reported(workload):
    assert seed1_pass()[workload]["missing"] == {}

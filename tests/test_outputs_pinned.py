"""The benchmark's seed-1 outputs, pinned.

Each digest covers the first output of every case of a workload (recovered
graphs, and for cli-roundtrip also the printed order-3 and order-4 tensors),
so a change that moves any recovered edge or cumulant value fails here.  A
change that moves an output on purpose updates the digest and says why.
"""

import pytest

from helpers import seed1_pass

DIGESTS = {
    "paper-cell": "8e9173e43d0e8b62",
    "deep-cliques": "a04bcbeec7f17c8d",
    "wide-overlap": "51f7921dcc342426",
    "cli-roundtrip": "1f8fe5154f086280",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_outputs_digest(workload):
    result = seed1_pass()[workload]
    assert result["problems"] == []
    assert result["digest"] == DIGESTS[workload]

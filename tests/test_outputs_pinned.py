"""The benchmark's seed-1 outputs, pinned.

Each digest covers the first output of every case of a workload (recovered
graphs, and for cli-roundtrip also the printed order-3 and order-4 tensors),
so a change that moves any recovered edge or cumulant value fails here.  A
change that moves an output on purpose updates the digest and says why.

Beside each digest, every count and bytes per-layer metric of the same pass
(per op, as ``perfbench/layers.py`` reports it) is pinned exactly: these do
not depend on timing, so a change that moves the work of a workload (gate
queries, cumulant entries, moments, bytes) fails here and, if on purpose,
updates the pin and says why.
"""

import pytest

from helpers import seed1_pass

DIGESTS = {
    "paper-cell": "8e9173e43d0e8b62",
    "deep-cliques": "a04bcbeec7f17c8d",
    "wide-overlap": "51f7921dcc342426",
    "cli-roundtrip": "1f8fe5154f086280",
}

WORK = {
    "cli-roundtrip": {
        "sem.datasets_built": 14.0, "sem.preprocess.bytes": 6128640.0,
        "cumulants.entries.k2": 2.24, "cumulants.entries.k3": 0.88, "cumulants.entries.k4": 0.16,
        "cumulants.entries.k5": 0.0, "cumulants.entries.k6": 0.0, "cumulants.entries.k7": 0.0,
        "cumulants.entries.k8": 0.0, "cumulants.moments": 432.16,
        "cumulants.moment.bytes": 89580800.0, "cumulants.population_entries": 0.0,
        "cumulants.tensor.entries": 276.08, "discovery.gate_tests.root": 4.24,
        "discovery.gate_tests.primary": 1.6, "discovery.gate_tests.relaxed": 0.0,
        "discovery.gate_tests.fail": 0.8,
    },
    "deep-cliques": {
        "sem.datasets_built": 3.0, "sem.preprocess.bytes": 11400000.0, "cumulants.entries.k2": 1.0,
        "cumulants.entries.k3": 1.0, "cumulants.entries.k4": 1.3333333333333333,
        "cumulants.entries.k5": 0.8333333333333334, "cumulants.entries.k6": 0.9444444444444444,
        "cumulants.entries.k7": 0.5, "cumulants.entries.k8": 0.5, "cumulants.moments": 137.0,
        "cumulants.moment.bytes": 211111111.1111111, "cumulants.population_entries": 0.0,
        "cumulants.tensor.entries": 0.0, "discovery.gate_tests.root": 5.166666666666667,
        "discovery.gate_tests.primary": 4.555555555555555,
        "discovery.gate_tests.relaxed": 0.7777777777777778, "discovery.gate_tests.fail": 0.0,
    },
    "paper-cell": {
        "sem.datasets_built": 4.0, "sem.preprocess.bytes": 10546666.666666666,
        "cumulants.entries.k2": 0.31666666666666665, "cumulants.entries.k3": 0.05,
        "cumulants.entries.k4": 0.025, "cumulants.entries.k5": 0.0, "cumulants.entries.k6": 0.0,
        "cumulants.entries.k7": 0.0, "cumulants.entries.k8": 0.0, "cumulants.moments": 1.25,
        "cumulants.moment.bytes": 786666.6666666666, "cumulants.population_entries": 0.0,
        "cumulants.tensor.entries": 0.0, "discovery.gate_tests.root": 0.625,
        "discovery.gate_tests.primary": 0.3416666666666667, "discovery.gate_tests.relaxed": 0.025,
        "discovery.gate_tests.fail": 0.0,
    },
    "wide-overlap": {
        "sem.datasets_built": 3.0, "sem.preprocess.bytes": 28800000.0,
        "cumulants.entries.k2": 164.2, "cumulants.entries.k3": 125.8,
        "cumulants.entries.k4": 103.26666666666667, "cumulants.entries.k5": 15.666666666666666,
        "cumulants.entries.k6": 5.0, "cumulants.entries.k7": 0.0, "cumulants.entries.k8": 0.0,
        "cumulants.moments": 806.0, "cumulants.moment.bytes": 371925333.3333333,
        "cumulants.population_entries": 418.93333333333334, "cumulants.tensor.entries": 0.0,
        "discovery.gate_tests.root": 111.33333333333333,
        "discovery.gate_tests.primary": 369.53333333333336,
        "discovery.gate_tests.relaxed": 49.86666666666667,
        "discovery.gate_tests.fail": 137.73333333333332,
    },
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_outputs_digest(workload):
    result = seed1_pass()[workload]
    assert result["problems"] == []
    assert result["digest"] == DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(WORK))
def test_work_counts(workload):
    assert seed1_pass()[workload]["work"] == WORK[workload]

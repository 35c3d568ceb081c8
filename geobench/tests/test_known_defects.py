"""Known program defects that keep shapes out of the benchmark.

Each test runs one scenario of a shape in
:data:`geobench.workloads.DEFECT_SHAPES` on which the program stalls
without any fault, and asserts that it passes every benchmark check.  They
are strict expected failures: once the defect is fixed the test passes,
pytest reports that as a failure, and the shape can move back into the
benchmark.  ``geobench/README.md`` ("Known defects") describes each stall.

Run from the repository root::

    python3 -m pytest geobench/tests/test_known_defects.py -q
"""

from __future__ import annotations

import dataclasses

import pytest

from geobench import worker
from geobench.workloads import DEFECT_SHAPES


def _problems(shape: str, seed: int, duration: float) -> list:
    """Check violations of one scenario, its schedule built for 10 sim-s."""
    spec = DEFECT_SHAPES[shape].build(seed, 10.0)
    spec = dataclasses.replace(spec, duration=duration, warmup=duration / 4.0)
    deployment = spec.build()
    metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
    _process, problems = worker.inspect(deployment, spec, metrics)
    return problems


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="BRD stall: the leader of cluster 2 decides round 14 holding 4 of the 5"
    " submissions BRD needs; the others ride later consensus votes, which never"
    " trigger aggregation",
)
def test_churn_bftsmart_keeps_making_progress():
    assert _problems("geo_churn_bftsmart", 2004, 3.0) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a LocalShare for the next round that arrives while the replica executes"
    " the current one is dropped as a duplicate, and the round never completes",
)
def test_open_leases_keeps_making_progress():
    assert _problems("geo_open_leases", 13002, 7.5) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the same dropped LocalShare, on the BFT-SMaRt engine",
)
def test_hetero_bftsmart_keeps_making_progress():
    assert _problems("geo_hetero_bftsmart", 73002, 2.5) == []

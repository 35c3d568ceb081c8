"""The benchmark's workloads: seed -> :class:`~repro.ScenarioSpec` list.

Every workload is built through the public ``repro.Scenario`` builder and
uses the three regions of the paper's Table II.  One benchmark seed expands
into ``SUB_SEEDS`` scenario seeds; a run simulates all of them and reports
their mean, because protocol dynamics differ from one scenario seed to the
next far more than host timing noise does.  The seed is the only input that
varies between runs of one workload.

:data:`DEFECT_SHAPES` holds the shapes that are *not* benchmarked because
the program stalls on some of their seeds without any fault (see
``geobench/README.md``, "Known defects").  ``geobench/tests/test_known_defects.py``
pins one stalling scenario of each as a strict expected failure; a shape
can move into :data:`WORKLOADS` once its test passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import Scenario, ScenarioSpec

#: Paper Table II regions.
REGIONS = ("us-west1", "europe-west3", "asia-south1")

#: Scenario seeds per benchmark seed, and their spacing.
SUB_SEEDS = 4
SUB_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name as given on the command line.
        why: One line: what the workload stresses that the others do not.
        duration: Default simulated seconds per scenario.
        build: ``(scenario seed, duration) -> ScenarioSpec``.
    """

    name: str
    why: str
    duration: float
    build: Callable[[int, float], ScenarioSpec]

    def specs(self, seed: int, duration: Optional[float] = None) -> List[ScenarioSpec]:
        """The scenarios one benchmark seed stands for."""
        duration = self.duration if duration is None else duration
        return [
            self.build(seed * SUB_SEED_STRIDE + index, duration) for index in range(SUB_SEEDS)
        ]


def _warmup(duration: float) -> float:
    return min(1.0, duration / 4.0)


def _hetero_closed(seed: int, duration: float) -> ScenarioSpec:
    return (
        Scenario("geo_hetero_closed")
        .clusters((4, REGIONS[0]), (7, REGIONS[1]), (10, REGIONS[2]))
        .engine("hotstuff")
        .threads(32)
        .duration(duration, warmup=_warmup(duration))
        .seed(seed)
        .spec()
    )


def _hetero_writes(seed: int, duration: float) -> ScenarioSpec:
    return (
        Scenario("geo_hetero_writes")
        .clusters((4, REGIONS[0]), (7, REGIONS[1]), (10, REGIONS[2]))
        .engine("hotstuff")
        .threads(32)
        .workload(read_fraction=0.5)
        .duration(duration, warmup=_warmup(duration))
        .seed(seed)
        .spec()
    )


def _open_leases(seed: int, duration: float) -> ScenarioSpec:
    return (
        Scenario("geo_open_leases")
        .clusters((4, REGIONS[0]), (7, REGIONS[1]), (10, REGIONS[2]))
        .engine("hotstuff")
        .open_loop(preset="steady")
        .read_leases(True)
        .duration(duration, warmup=_warmup(duration))
        .seed(seed)
        .spec()
    )


def _hetero_bftsmart(seed: int, duration: float) -> ScenarioSpec:
    return (
        Scenario("geo_hetero_bftsmart")
        .clusters((4, REGIONS[0]), (7, REGIONS[1]), (10, REGIONS[2]))
        .engine("bftsmart")
        .threads(32)
        .duration(duration, warmup=_warmup(duration))
        .seed(seed)
        .spec()
    )


#: Churn: one join every ``CHURN_PERIOD`` simulated seconds, rotating over
#: the clusters; each joiner asks to leave ``CHURN_STAY`` seconds later.
CHURN_START = 0.5
CHURN_PERIOD = 0.1
CHURN_STAY = 1.0


def _churn_bftsmart(seed: int, duration: float) -> ScenarioSpec:
    scenario = (
        Scenario("geo_churn_bftsmart")
        .clusters(*[(4, region) for region in REGIONS])
        .engine("bftsmart")
        .threads(32)
        .duration(duration, warmup=_warmup(duration))
        .seed(seed)
    )
    # Leaves must land before the end of the run, with half a second spare.
    last_join = duration - CHURN_STAY - 0.5
    index = 0
    while CHURN_START + index * CHURN_PERIOD <= last_join:
        at = round(CHURN_START + index * CHURN_PERIOD, 6)
        name = f"churn{index}"
        scenario.join(index % len(REGIONS), at=at, replica_id=name)
        scenario.leave(name, at=round(at + CHURN_STAY, 6))
        index += 1
    return scenario.spec()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "geo_hetero_closed",
            "paper E3 shape 4/7/10 in 3 regions, basic HotStuff, closed loop, 85% reads:"
            " client, metrics and local-read work per op peak, BRD quiet",
            10.0,
            _hetero_closed,
        ),
        Workload(
            "geo_hetero_writes",
            "same shape at 50% writes: consensus, inter-cluster and BRD messages per op triple;"
            " client and metrics share of time halves",
            # A write-heavy scenario simulates three times fewer ops per
            # second; twice the simulated time keeps its seed-to-seed spread
            # as low as that of geo_hetero_closed.
            20.0,
            _hetero_writes,
        ),
    )
}

#: Shapes left out of the benchmark because the program stalls on some of
#: their seeds; the ``why`` names the defect.
DEFECT_SHAPES: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "geo_open_leases",
            "open-loop steady populations (2000 ops/s per region), read leases; a bundle share is dropped",
            10.0,
            _open_leases,
        ),
        Workload(
            "geo_churn_bftsmart",
            "BFT-SMaRt 3x4 with a join every 0.1 s and leave 1 s later; stalls in BRD",
            10.0,
            _churn_bftsmart,
        ),
        Workload(
            "geo_hetero_bftsmart",
            "geo_hetero_closed on BFT-SMaRt; a bundle share is dropped",
            10.0,
            _hetero_bftsmart,
        ),
    )
}


__all__ = ["DEFECT_SHAPES", "REGIONS", "SUB_SEEDS", "WORKLOADS", "Workload"]

"""Simulation runs in a fresh interpreter: the child side of ``run.py``.

Reads one JSON request on stdin — ``{"mode": ..., "specs": [<ScenarioSpec
dict>, ...], "builds": n}`` — and prints one JSON result as its last stdout
line.  A fresh process per request gives each request its own peak RSS and
a cold interpreter, and lets the traced mode wrap classes before anything
is built.

Modes:

* ``timed``: for each spec in turn, build it ``builds`` times (set-up
  samples), run the last build with ``Deployment.run`` and check it.
* ``traced``: the same for one spec, with the layer wrappers of
  :mod:`geobench.tracing` installed.

``observed`` holds what the metrics collector and network statistics
report, ``process`` what only the live deployment can tell; both are
deterministic per seed.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import resource
import sys
import time
from math import ceil
from typing import Dict, List, Tuple

from repro import ScenarioSpec
from repro.harness.scenario import JoinEvent

from geobench import checks

#: Census prefixes of each layer's wire messages.
CONSENSUS_PREFIXES = ("Hs", "Ch", "Bs")
BRD_PREFIX = "Brd"
INTER_TYPES = ("Inter", "LocalShare")


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nearest_rank(values: List[float], percentile: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, ceil(percentile * len(ordered)) - 1))]


def observe(spec: ScenarioSpec, metrics, stats) -> Dict[str, object]:
    """What the metrics collector and network statistics report for one run."""
    committed = len(metrics.transactions)
    census = {name: count for name, count in sorted(stats.by_type.items())}
    stages = metrics.stage_breakdown()
    rounds = metrics.rounds
    requested = {
        event.replica_id: event.at for event in spec.schedule if isinstance(event, JoinEvent)
    }
    join_ms = [
        (at - requested[pid]) * 1000.0 for pid, _cluster, at in metrics.joins_completed if pid in requested
    ]
    # Transaction ids come from a process-wide counter, so they depend on
    # what ran earlier in the process; the record fingerprint leaves them out.
    records = sorted(
        (r.completed_at, r.client_id, r.op, r.latency) for r in metrics.transactions
    )
    per_op = 1.0 / committed if committed else 0.0
    return {
        "sim": {
            "commit_tput": metrics.throughput(),
            "write_p50_ms": metrics.latency_percentile(0.5, op="write") * 1000.0,
            "write_p99_ms": metrics.latency_percentile(0.99, op="write") * 1000.0,
            "read_p50_ms": metrics.latency_percentile(0.5, op="read") * 1000.0,
            "read_p99_ms": metrics.latency_percentile(0.99, op="read") * 1000.0,
            "wire_msgs_per_op": stats.messages_sent * per_op,
            "wire_kb_per_op": stats.bytes_sent / 1024.0 * per_op,
        },
        "samples": {
            "write": metrics.committed_count(op="write"),
            "read": metrics.committed_count(op="read"),
        },
        "committed": committed,
        "census": census,
        "layers": {
            "consensus.wire_per_op": sum(
                count for name, count in census.items() if name.startswith(CONSENSUS_PREFIXES)
            )
            * per_op,
            "core.brd.wire_per_op": sum(
                count for name, count in census.items() if name.startswith(BRD_PREFIX)
            )
            * per_op,
            "core.replica.inter_wire_per_op": sum(census.get(name, 0) for name in INTER_TYPES)
            * per_op,
            "core.replica.ops_per_round": (
                sum(r.transactions for r in rounds) / len(rounds) if rounds else 0.0
            ),
            "core.replica.stage1_ms": stages["stage1"] * 1000.0,
            "core.replica.stage2_ms": stages["stage2"] * 1000.0,
            "core.replica.stage3_ms": stages["stage3"] * 1000.0,
            "core.reconfig.applied": len(metrics.reconfigs),
            "core.reconfig.join_p50_ms": _nearest_rank(join_ms, 0.5),
            "workload.lease_hit_rate": metrics.lease_hit_rate(),
        },
        "records": hashlib.sha256(repr(records).encode()).hexdigest(),
        "wire": stats.snapshot(),
    }


def _closed_loop_issue(deployment, metrics) -> Tuple[int, set, List[str]]:
    issued = 0
    ids = {record.txn_id for record in metrics.transactions}
    completed = 0
    for client in deployment.clients:
        for thread in client.threads:
            completed += thread.completed
            issued += thread.completed
            if thread.outstanding_txn is not None:
                issued += 1
                ids.add(thread.outstanding_txn.txn_id)
    problems = []
    if completed != len(metrics.transactions):
        problems.append(
            f"accounting: clients completed {completed} ops but {len(metrics.transactions)} were recorded"
        )
    return issued, ids, problems


def _open_loop_issue(deployment, metrics) -> Tuple[int, set, List[str], Dict[str, float]]:
    ids = {record.txn_id for record in metrics.transactions}
    totals = {"offered": 0.0, "completed": 0.0, "backlog": 0.0, "in_flight": 0.0, "retries": 0.0}
    delay_sum = delay_count = 0.0
    for population in deployment.populations:
        stats = population.stats()
        for key in totals:
            totals[key] += stats[key]
        delay_sum += population.queue_delay_sum
        delay_count += population.queue_delay_count
        ids.update(population._inflight)  # in-flight ids have no public accessor
    problems = []
    if totals["offered"] != totals["completed"] + totals["in_flight"] + totals["backlog"]:
        problems.append(f"accounting: population totals do not add up: {totals}")
    problems += checks.check_open_loop(
        int(totals["offered"]), int(totals["completed"]), int(totals["backlog"])
    )
    extra = {
        "workload.queue_delay_ms": delay_sum / delay_count * 1000.0 if delay_count else 0.0,
        "workload.retries": totals["retries"],
    }
    return int(totals["offered"]), ids, problems, extra


def inspect(deployment, spec: ScenarioSpec, metrics) -> Tuple[Dict[str, object], List[str]]:
    """What only the live deployment can tell, and every correctness check."""
    if spec.workload_model == "open":
        issued, ids, problems, extra = _open_loop_issue(deployment, metrics)
    else:
        issued, ids, problems = _closed_loop_issue(deployment, metrics)
        extra = {"workload.queue_delay_ms": 0.0}
    originals = {
        replica_id
        for cluster_id in deployment.system_config.cluster_ids()
        for replica_id in deployment.system_config.members(cluster_id)
    }
    logs = {rid: replica.execution_log for rid, replica in deployment.replicas.items()}
    last_round_end: Dict[int, float] = {}
    for record in metrics.rounds:
        last_round_end[record.cluster_id] = max(record.ended_at, last_round_end.get(record.cluster_id, 0.0))
    problems += checks.check_progress(
        last_round_end, deployment.system_config.cluster_ids(), spec.duration
    )
    problems += checks.check_execution_logs(logs, originals)
    problems += checks.check_validity((txn for log in logs.values() for txn in log), ids)
    committed = len(metrics.transactions)
    process = {
        "issued": issued,
        "events": deployment.simulator.events_processed,
        "op_fail_frac": (issued - committed) / issued if issued else 1.0,
        "workload.goodput_frac": committed / issued if issued else 0.0,
        **extra,
    }
    return process, problems


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop shaped like the simulator's hot path.

    Heap pushes and pops, small tuples, dictionary stores and hashing, and
    no program code: its time tracks only how fast the host runs Python at
    that moment.  On a shared host that speed drifts by 10-30% within
    minutes; the same drift shows in this loop, so host metrics divide it
    out (see ``run.py``).
    """
    started = time.perf_counter()
    queue: List[Tuple[int, int, Tuple[str, int]]] = []
    table: Dict[int, Tuple[int, Tuple[str, int], List[int]]] = {}
    digest = hashlib.sha256()
    for index in range(75_000):
        heapq.heappush(queue, ((index * 7919) % 1000, index, ("m", index % 97)))
        if len(queue) > 64:
            at, key, payload = heapq.heappop(queue)
            table[key % 4096] = (at, payload, [key, at])
            if key % 16 == 0:
                digest.update(repr(payload).encode())
    return time.perf_counter() - started


def run_one(spec: ScenarioSpec, builds: int) -> Dict[str, object]:
    """Build ``spec`` ``builds`` times, run the last build, check it.

    The reference loop is timed right before and right after the run.
    """
    setup: List[float] = []
    deployment = None
    for _ in range(builds):
        if deployment is not None:
            del deployment
            gc.collect()
        started = time.perf_counter()
        deployment = spec.build()
        setup.append(time.perf_counter() - started)
    before = reference_s()
    started = time.perf_counter()
    metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
    wall = time.perf_counter() - started
    reference = (before + reference_s()) / 2.0
    observed = observe(spec, metrics, deployment.network.stats)
    process, problems = inspect(deployment, spec, metrics)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "reference_s": reference,
        "observed": observed,
        "process": process,
        "violations": problems,
    }


def handle(request: Dict[str, object]) -> Dict[str, object]:
    specs = [ScenarioSpec.from_dict(payload) for payload in request["specs"]]
    mode = request["mode"]
    result: Dict[str, object] = {}
    if mode == "traced":
        from geobench import tracing

        if len(specs) != 1:
            raise ValueError("a traced request takes exactly one spec")
        tracer = tracing.Tracer()
        tracing.install(tracer)
        result["runs"] = [run_one(specs[0], builds=1)]
        result["trace"] = {"self_s": tracer.self_s, "root_s": tracer.root_s, "calls": tracer.counts()}
    elif mode == "timed":
        builds = int(request.get("builds", 1))
        runs = []
        for spec in specs:
            runs.append(run_one(spec, builds))
            gc.collect()
        result["runs"] = runs
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result["rss_mb"] = peak_rss_mb()
    return result


def main() -> int:
    request = json.load(sys.stdin)
    result = handle(request)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

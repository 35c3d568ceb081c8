"""The repository benchmark: geo-replication workloads, checked and timed.

Usage, from the repository root::

    python3 geobench/run.py --workload geo_hetero_closed --seed 1 --seconds 20 --trace 0

The seed expands into a fixed list of scenario seeds (see
:mod:`geobench.workloads`); each simulation gets only its generated
``ScenarioSpec``, in a fresh ``python3 -m geobench.worker`` process.  One
*round* runs every scenario once.  Rounds repeat until ``--seconds`` of wall
time are spent (at least two); host times are medians over the rounds.
Simulated metrics are deterministic per seed, must be byte-identical in
every round, and are reported as the mean over the scenario seeds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: it measures untraced rounds for half the time, then runs
the first scenario once more with the layer wrappers of
:mod:`geobench.tracing` installed, and checks that the traced run
reproduces the untraced one exactly.

Every run is checked (see :mod:`geobench.checks`); any violation makes the
command print ``"correct": false`` and exit with status 1.  The last stdout
line is one JSON object: ``correct``, ``attempted`` (operations issued over
all runs), ``failed`` (all of them when any check fails, else 0) and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    # Never fall back to an installed copy: the program under test is this
    # checkout's source tree.
    sys.exit(f"geobench: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from geobench import checks  # noqa: E402
from geobench.tracing import LAYER_METHODS, LAYERS, method_key  # noqa: E402
from geobench.workloads import WORKLOADS, Workload  # noqa: E402

#: End-to-end metrics (name -> unit), reported with ``--trace 0``.
END_TO_END: Dict[str, str] = {
    "ops_per_norm_s": "ops/s",
    "sim_s_per_norm_s": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "commit_tput": "ops/sim-s",
    "write_p50_ms": "sim-ms",
    "write_p99_ms": "sim-ms",
    "read_p50_ms": "sim-ms",
    "read_p99_ms": "sim-ms",
    "wire_msgs_per_op": "msgs/op",
    "wire_kb_per_op": "KiB/op",
    "op_fail_frac": "fraction",
}

#: Per-layer metrics (name -> unit), reported with ``--trace 1``.
PER_LAYER: Dict[str, str] = {
    "sim.events_per_op": "events/op",
    "sim.timer_arms_per_op": "calls/op",
    "net.pipeline.sends_per_op": "calls/op",
    "net.pipeline.us_per_send": "us",
    "net.message.digests_per_op": "calls/op",
    "net.message.us_per_digest": "us",
    "net.crypto.signs_per_op": "calls/op",
    "net.crypto.verifies_per_op": "calls/op",
    "net.crypto.cert_checks_per_op": "calls/op",
    "consensus.msgs_per_op": "calls/op",
    "consensus.wire_per_op": "msgs/op",
    "core.replica.msgs_per_op": "calls/op",
    "core.replica.inter_wire_per_op": "msgs/op",
    "core.replica.ops_per_round": "ops",
    "core.replica.stage1_ms": "sim-ms",
    "core.replica.stage2_ms": "sim-ms",
    "core.replica.stage3_ms": "sim-ms",
    "core.brd.msgs_per_op": "calls/op",
    "core.brd.wire_per_op": "msgs/op",
    "core.reconfig.applied": "count",
    "core.reconfig.join_p50_ms": "sim-ms",
    "workload.us_per_op": "us",
    "workload.goodput_frac": "fraction",
    "workload.lease_hit_rate": "fraction",
    "workload.queue_delay_ms": "sim-ms",
    "workload.retries": "count",
    "workload.write_samples": "count",
    "workload.read_samples": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "host.cores": "count",
    "trace.overhead": "x",
}

MIN_ROUNDS = 2
MAX_ROUNDS = 20
#: Deployment builds per scenario run; ``setup_s`` is the median of all of them.
BUILDS_PER_RUN = 5
#: Wall-clock limit of one invocation; a worker still running then is killed.
DEADLINE_S = 170.0
#: A p99 is reported only with at least ten samples beyond it.
MIN_P99_SAMPLES = 1000
#: Wall seconds of :func:`geobench.worker.reference_s` on the nominal host.
#: A scenario's run and build times are scaled by ``REFERENCE_NOMINAL_S /
#: reference_s`` into *normalised seconds*: seconds on a host that runs the
#: reference loop in exactly this time.  About what the loop takes on a
#: 2-core cloud VM.
REFERENCE_NOMINAL_S = 0.1
#: Tolerance of the self-time sum against the ``Simulator.run`` span.
SPAN_SUM_TOLERANCE = 1e-9

ENGINE_MESSAGE_CALLS = tuple(
    method_key(cls, method) for _module, cls, method in LAYER_METHODS["consensus"] if method == "on_message"
)


class BenchmarkError(RuntimeError):
    """A run could not be measured at all (as opposed to measured wrong)."""


def spawn(request: Dict[str, object], deadline: float) -> Dict[str, object]:
    """Run one worker process on one request and return its result.

    ``deadline`` is a ``time.perf_counter()`` value the worker must finish by.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "geobench.worker"],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker ({request['mode']}) timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker ({request['mode']}) failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(request: Dict[str, object], budget_s: float, deadline: float) -> List[Dict[str, object]]:
    """Run ``request`` at least ``MIN_ROUNDS`` times, more while the budget lasts."""
    started = time.perf_counter()
    results: List[Dict[str, object]] = []
    durations: List[float] = []
    while len(results) < MAX_ROUNDS:
        before = time.perf_counter()
        results.append(spawn(request, deadline))
        durations.append(time.perf_counter() - before)
        elapsed = time.perf_counter() - started
        if len(results) >= MIN_ROUNDS and elapsed + statistics.median(durations) > budget_s:
            break
    return results


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def _fingerprint(run: Dict[str, object]) -> Dict[str, object]:
    """Everything deterministic about one scenario run."""
    return {**run["observed"], **run["process"]}


class Measurement:
    """All runs of one invocation, their checks, and the metrics they yield.

    A *round* is one worker process that runs every scenario seed of the
    benchmark seed once.  Rounds repeat while the time budget lasts; every
    round must reproduce the first one exactly.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        trace: bool,
        duration: Optional[float] = None,
    ) -> None:
        self.workload = workload
        self.specs = workload.specs(seed, duration)
        self.seconds = seconds
        self.trace = trace
        self.violations: List[str] = []
        self.issued_total = 0
        self.rounds: List[Dict[str, object]] = []
        self.traced: Optional[Dict[str, object]] = None

    @property
    def first(self) -> List[Dict[str, object]]:
        """The first round's run of every scenario seed."""
        return self.rounds[0]["runs"]

    def _account(self, run: Dict[str, object]) -> None:
        self.issued_total += run["process"]["issued"]
        self.violations.extend(run["violations"])

    def _check_same(self, label: str, first: Dict[str, object], other: Dict[str, object]) -> None:
        problems = checks.diff_fingerprints(_fingerprint(first), _fingerprint(other))
        self.violations.extend(f"{label}: {problem}" for problem in problems)

    def run(self) -> None:
        deadline = time.perf_counter() + DEADLINE_S
        budget = self.seconds / 2.0 if self.trace else self.seconds
        request = {
            "mode": "timed",
            "specs": [spec.to_dict() for spec in self.specs],
            "builds": BUILDS_PER_RUN,
        }
        self.rounds = repeat(request, budget, deadline)
        for round_index, result in enumerate(self.rounds):
            for spec, first, run in zip(self.specs, self.first, result["runs"]):
                self._account(run)
                if round_index:
                    self._check_same(f"seed {spec.seed} round {round_index} vs round 0", first, run)
        if self.trace:
            self.traced = spawn({"mode": "traced", "specs": [self.specs[0].to_dict()]}, deadline)
            traced = self.traced["runs"][0]
            self._account(traced)
            self._check_same("traced run vs untraced", self.first[0], traced)
            trace = self.traced["trace"]
            total = sum(trace["self_s"].values())
            if abs(total - trace["root_s"]) > SPAN_SUM_TOLERANCE * max(1.0, trace["root_s"]):
                self.violations.append(
                    f"trace: layer self times sum to {total!r}, Simulator.run span is {trace['root_s']!r}"
                )
        for spec, run in zip(self.specs, self.first):
            for op, count in run["observed"]["samples"].items():
                if count < MIN_P99_SAMPLES:
                    self.violations.append(
                        f"samples: seed {spec.seed} has only {count} {op}s in the window,"
                        f" a p99 needs {MIN_P99_SAMPLES}"
                    )

    # ------------------------------------------------------------------ #
    def _walls(self, index: int) -> List[float]:
        return [result["runs"][index]["wall_s"] for result in self.rounds]

    def _normalised_walls(self, index: int) -> List[float]:
        runs = [result["runs"][index] for result in self.rounds]
        return [run["wall_s"] * REFERENCE_NOMINAL_S / run["reference_s"] for run in runs]

    def end_to_end(self) -> Dict[str, float]:
        walls = [statistics.median(self._normalised_walls(index)) for index in range(len(self.specs))]
        committed = sum(run["observed"]["committed"] for run in self.first)
        setups = [
            sample * REFERENCE_NOMINAL_S / run["reference_s"]
            for result in self.rounds
            for run in result["runs"]
            for sample in run["setup_s"]
        ]
        values = {
            "ops_per_norm_s": committed / sum(walls),
            "sim_s_per_norm_s": sum(spec.duration for spec in self.specs) / sum(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(result["rss_mb"] for result in self.rounds),
        }
        # Simulated metrics: the mean over the scenario seeds.
        simulated = [
            {**run["observed"]["sim"], "op_fail_frac": run["process"]["op_fail_frac"]}
            for run in self.first
        ]
        for name in simulated[0]:
            values[name] = statistics.fmean(sample[name] for sample in simulated)
        return values

    def per_layer(self) -> Dict[str, float]:
        """Layer metrics of the first scenario seed, from its traced run."""
        observed = self.first[0]["observed"]
        process = self.first[0]["process"]
        ops = observed["committed"]
        trace = self.traced["trace"]
        calls = trace["calls"]
        self_s = trace["self_s"]
        root = trace["root_s"]

        def per_op(*keys: str) -> float:
            return sum(calls.get(key, 0) for key in keys) / ops

        def per_call(layer: str, *keys: str) -> float:
            count = sum(calls.get(key, 0) for key in keys)
            return self_s[layer] / count * 1e6 if count else 0.0

        sends = ("DeliveryPipeline.send", "DeliveryPipeline.multicast")
        digests = ("Message.digest", "OperationsBundle.digest")
        values: Dict[str, float] = {
            "sim.events_per_op": process["events"] / ops,
            "sim.timer_arms_per_op": per_op("Timer.start", "DeadlinePool.arm"),
            "net.pipeline.sends_per_op": per_op(*sends),
            "net.pipeline.us_per_send": per_call("net.pipeline", *sends),
            "net.message.digests_per_op": per_op(*digests),
            "net.message.us_per_digest": per_call("net.message", *digests),
            "net.crypto.signs_per_op": per_op("KeyRegistry.sign"),
            "net.crypto.verifies_per_op": per_op("KeyRegistry.verify"),
            "net.crypto.cert_checks_per_op": per_op("KeyRegistry.certificate_valid"),
            "consensus.msgs_per_op": per_op(*ENGINE_MESSAGE_CALLS),
            "core.replica.msgs_per_op": per_op("HamavaReplica.on_message"),
            "core.brd.msgs_per_op": per_op("ByzantineReliableDissemination.on_message"),
            "workload.us_per_op": self_s["workload"] / ops * 1e6,
            "workload.goodput_frac": process["workload.goodput_frac"],
            "workload.queue_delay_ms": process["workload.queue_delay_ms"],
            "workload.retries": process.get(
                "workload.retries", float(calls.get("WorkloadClient._resend", 0))
            ),
            "workload.write_samples": observed["samples"]["write"],
            "workload.read_samples": observed["samples"]["read"],
            **observed["layers"],
            "host.cores": os.cpu_count() or 1,
            "trace.overhead": self.traced["runs"][0]["wall_s"] / statistics.median(self._walls(0)),
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self_s[layer]
            values[f"{layer}.share"] = self_s[layer] / root if root else 0.0
        return values


def _format_table(title: str, values: Dict[str, float], units: Dict[str, str]) -> str:
    lines = [title]
    for name, unit in units.items():
        lines.append(f"  {name:<34} {values[name]:>14.6g} {unit}")
    return "\n".join(lines)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    # On SIGTERM, unwind through ``subprocess.run``, which kills and reaps
    # the running worker before the exception propagates.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    args = parse_args(argv)
    measurement = Measurement(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    measurement.run()
    if args.trace:
        units = PER_LAYER
        values = measurement.per_layer()
        print(_format_table(f"{args.workload} seed {args.seed}: per-layer (traced run of the first scenario)", values, units))
        print(
            "  note: sim.self_s is the Simulator.run span minus every wrapped child span, so it also"
            " holds the private callbacks the kernel fires directly (timers, pipeline hand-over,"
            " population ticks)"
        )
    else:
        units = END_TO_END
        values = measurement.end_to_end()
        print(_format_table(f"{args.workload} seed {args.seed}: end to end", values, units))
        for spec, run in zip(measurement.specs, measurement.first):
            samples = run["observed"]["samples"]
            line = f"  scenario seed {spec.seed}: {samples['write']} writes, {samples['read']} reads in the window"
            if spec.workload_model == "open":
                process = run["process"]
                line += (
                    f", goodput {process['workload.goodput_frac']:.4f},"
                    f" queue delay {process['workload.queue_delay_ms']:.3f} ms"
                )
            print(line)
        committed = sum(run["observed"]["committed"] for run in measurement.first)
        wall = sum(statistics.median(measurement._walls(index)) for index in range(len(measurement.specs)))
        references = [run["reference_s"] for result in measurement.rounds for run in result["runs"]]
        print(
            f"  rounds: {len(measurement.rounds)}; unscaled {committed / wall:.6g} ops/s;"
            f" reference loop median {statistics.median(references):.4f} s"
        )
    for violation in measurement.violations:
        print(f"VIOLATION {violation}", file=sys.stderr)
    correct = not measurement.violations
    result = {
        "correct": correct,
        "attempted": measurement.issued_total,
        "failed": 0 if correct else measurement.issued_total,
        "metrics": {name: _metric(values[name], unit) for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

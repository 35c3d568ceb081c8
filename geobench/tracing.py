"""Outside-in layer attribution: span-stack wrappers on public layer methods.

Nothing inside ``src/`` is instrumented.  :func:`install` replaces selected
methods *on their classes* with thin wrappers that count every call and,
while a ``Simulator.run`` span is open, keep a stack of open spans in
memory.  A layer's self time is the duration of its spans minus the time
covered by the spans opened inside them, so the self times of all layers
(the kernel's included) add up to the ``Simulator.run`` span exactly.

The wrappers must be installed before the deployment is built: replicas
bind ``tob.on_message`` and ``rlc.on_message`` into their dispatch tables
at construction, and ``payload_digest`` memoises each class's ``digest``
the first time it sees the class.  Install them in a fresh process.

``sim`` self time is the ``Simulator.run`` span minus every child span, so
it also holds the private callbacks the kernel fires directly (timer
handlers, pipeline hand-over, population ticks, round starts).
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, Tuple

#: Layer name -> ``(module, class, method)`` triples whose calls are spans of
#: that layer.  ``sim`` is the root span; the others nest inside it.
LAYER_METHODS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "sim": (("repro.sim.simulator", "Simulator", "run"),),
    "net.pipeline": (
        ("repro.net.network", "DeliveryPipeline", "send"),
        ("repro.net.network", "DeliveryPipeline", "multicast"),
        ("repro.net.network", "DeliveryPipeline", "deliver_cross"),
        ("repro.net.network", "DeliveryPipeline", "charge_verification"),
    ),
    "net.message": (
        ("repro.net.message", "Message", "digest"),
        ("repro.core.types", "OperationsBundle", "digest"),
    ),
    "net.crypto": (
        ("repro.net.crypto", "KeyRegistry", "sign"),
        ("repro.net.crypto", "KeyRegistry", "verify"),
        ("repro.net.crypto", "KeyRegistry", "certificate_valid"),
    ),
    "consensus": tuple(
        (module, cls, method)
        for module, cls in (
            ("repro.consensus.hotstuff", "HotStuffEngine"),
            ("repro.consensus.hotstuff_chained", "ChainedHotStuffEngine"),
            ("repro.consensus.bftsmart", "BftSmartEngine"),
        )
        for method in ("on_message", "propose")
    ),
    "core.replica": (("repro.core.replica", "HamavaReplica", "on_message"),),
    "core.brd": (
        ("repro.core.brd", "ByzantineReliableDissemination", "on_message"),
        ("repro.core.brd", "ByzantineReliableDissemination", "broadcast"),
        ("repro.core.brd", "ByzantineReliableDissemination", "on_marker"),
    ),
    "core.reconfig": (
        ("repro.core.reconfiguration", "ReconfigurationCollector", "on_message"),
        ("repro.core.remote_leader_change", "RemoteLeaderChange", "on_message"),
    ),
    "workload": (
        ("repro.workload.clients", "WorkloadClient", "on_message"),
        ("repro.workload.population", "ClientPopulation", "on_message"),
        ("repro.workload.ycsb", "YcsbWorkload", "next_operation"),
        ("repro.workload.zipf", "ZipfianGenerator", "next"),
    ),
    "harness.metrics": (("repro.harness.metrics", "MetricsCollector", "record_transaction"),),
}

#: Methods that are only counted, never timed: timer arms (``Timer.reset``
#: delegates to ``Timer.start``, ``PooledTimer`` to ``DeadlinePool.arm``)
#: and closed-loop client resends.
COUNTED_METHODS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.simulator", "Timer", "start"),
    ("repro.sim.simulator", "DeadlinePool", "arm"),
    ("repro.workload.clients", "WorkloadClient", "_resend"),
)

LAYERS: Tuple[str, ...] = tuple(LAYER_METHODS)


def method_key(cls: str, method: str) -> str:
    """The name a method's call count is reported under."""
    return f"{cls}.{method}"


class Tracer:
    """In-memory span stack, per-layer self time and per-method call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {}
        #: Total duration of the root (``Simulator.run``) spans.
        self.root_s = 0.0
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: List[float] = []
        self._cells: Dict[str, List[int]] = {}

    def counts(self) -> Dict[str, int]:
        """Calls per wrapped method, including calls outside any run span."""
        return {key: cell[0] for key, cell in sorted(self._cells.items())}

    def _counter(self, key: str) -> List[int]:
        return self._cells.setdefault(key, [0])

    def span_wrapper(self, original, layer: str, key: str, root: bool):
        cell = self._counter(key)
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if not stack and not root:
                return original(*args, **kwargs)  # outside any run: count only
            stack.append(0.0)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - started
                children = stack.pop()
                self_s[layer] += duration - children
                if stack:
                    stack[-1] += duration
                elif root:
                    tracer.root_s += duration

        return wrapper

    def count_wrapper(self, original, key: str):
        cell = self._counter(key)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return original(*args, **kwargs)

        return wrapper


def _resolve(module: str, cls: str):
    import importlib

    return getattr(importlib.import_module(module), cls)


def install(tracer: Tracer) -> None:
    """Wrap every listed method on its class (irreversible; use a fresh process)."""
    for layer, methods in LAYER_METHODS.items():
        for module, cls_name, method in methods:
            cls = _resolve(module, cls_name)
            original = cls.__dict__[method]
            key = method_key(cls_name, method)
            setattr(cls, method, tracer.span_wrapper(original, layer, key, root=layer == "sim"))
    for module, cls_name, method in COUNTED_METHODS:
        cls = _resolve(module, cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, tracer.count_wrapper(original, method_key(cls_name, method)))


__all__ = ["COUNTED_METHODS", "LAYERS", "LAYER_METHODS", "Tracer", "install", "method_key"]

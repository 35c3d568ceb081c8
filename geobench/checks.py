"""Correctness checks every benchmark run must pass, outside the timed region.

Each check returns a list of human-readable violations; an empty list
means the run is correct.  The checks read only the public state a run
leaves behind (replica execution logs, client threads, the metrics
collector) plus the population's in-flight table.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Mapping, Sequence, Set

#: Lowest goodput (completed / offered) an open-loop run may show before it
#: counts as saturated, and the largest end backlog as a share of offered.
MIN_OPEN_GOODPUT = 0.95
MAX_OPEN_BACKLOG = 0.01

#: Every cluster must finish a round within this many simulated seconds of
#: the end of a fault-free run (rounds take well under half a second).
PROGRESS_WINDOW = 1.0


def check_execution_logs(
    logs: Mapping[str, Sequence[str]], originals: Iterable[str]
) -> List[str]:
    """Safety and exactly-once over every replica's execution log.

    All logs must be contiguous segments of one global order.  Original
    members hold prefixes of it; a joiner's log starts at its state transfer
    and may run past every original member's (it then extends the order).
    No transaction id may appear twice in one log.
    """
    problems: List[str] = []
    for replica in sorted(logs):
        log = logs[replica]
        seen: Set[str] = set()
        for txn in log:
            if txn in seen:
                problems.append(f"exactly-once: {replica} executed {txn!r} twice")
                break
            seen.add(txn)
    if problems:
        return problems
    members = sorted((r for r in set(originals) if r in logs), key=lambda r: (-len(logs[r]), r))
    if not members:
        return ["safety: no original member has an execution log"]
    order: List[str] = list(logs[members[0]])
    for replica in members[1:]:
        log = logs[replica]
        if list(log) != order[: len(log)]:
            index = next(i for i, (a, b) in enumerate(zip(log, order)) if a != b)
            problems.append(
                f"safety: {replica} diverges from {members[0]} at position {index}"
            )
    position = {txn: index for index, txn in enumerate(order)}
    pending = sorted(r for r in logs if r not in set(members) and logs[r])
    while pending:
        # A joiner may start inside another joiner's extension of the order,
        # so place whichever joiners start inside the order known so far.
        placeable = [r for r in pending if logs[r][0] in position]
        if not placeable:
            for replica in pending:
                problems.append(f"safety: joiner {replica} starts outside the global order")
            break
        for replica in sorted(placeable, key=lambda r: (position[logs[r][0]], r)):
            pending.remove(replica)
            log = list(logs[replica])
            start = position[log[0]]
            overlap = order[start : start + len(log)]
            if log[: len(overlap)] != overlap:
                index = next(i for i, (a, b) in enumerate(zip(log, overlap)) if a != b)
                problems.append(
                    f"safety: joiner {replica} diverges from the global order at position {start + index}"
                )
                continue
            for txn in log[len(overlap) :]:
                position[txn] = len(order)
                order.append(txn)
    return problems


def check_validity(executed: Iterable[str], issued: Set[str]) -> List[str]:
    """Every executed transaction id was issued by the workload layer."""
    unknown = sorted(set(executed) - issued)
    if unknown:
        return [f"validity: {len(unknown)} executed ids were never issued, e.g. {unknown[0]!r}"]
    return []


def check_progress(
    last_round_end: Mapping[int, float], clusters: Iterable[int], end: float
) -> List[str]:
    """Liveness: every cluster keeps executing rounds until the run ends."""
    problems = []
    for cluster in sorted(clusters):
        last = last_round_end.get(cluster)
        if last is None or last < end - PROGRESS_WINDOW:
            problems.append(
                f"progress: cluster {cluster} executed no round after t={last} of a {end} s run"
            )
    return problems


def check_open_loop(offered: int, completed: int, backlog: int) -> List[str]:
    """An open-loop run must stay below saturation.

    Population latency is measured from dispatch, so a growing backlog would
    not show in the percentiles; this check keeps them honest.
    """
    problems = []
    if offered <= 0:
        return ["open loop: no arrivals"]
    if completed / offered < MIN_OPEN_GOODPUT:
        problems.append(f"open loop: goodput {completed / offered:.3f} < {MIN_OPEN_GOODPUT}")
    if backlog > MAX_OPEN_BACKLOG * offered:
        problems.append(f"open loop: end backlog {backlog} > {MAX_OPEN_BACKLOG:.0%} of offered")
    return problems


def _canonical(value: object) -> str:
    """Byte-exact text of a JSON-able value (floats in shortest round-trip form)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def diff_fingerprints(first: Mapping[str, object], other: Mapping[str, object]) -> List[str]:
    """Keys whose values are not byte-identical between two runs."""
    problems = []
    for key in sorted(set(first) | set(other)):
        if key not in first or key not in other:
            problems.append(f"determinism: {key!r} present in only one run")
        elif _canonical(first[key]) != _canonical(other[key]):
            problems.append(f"determinism: {key!r} differs between runs of one seed")
    return problems


__all__ = [
    "check_execution_logs",
    "check_open_loop",
    "check_progress",
    "check_validity",
    "diff_fingerprints",
]

"""The replicated application state machine: a key-value store.

The paper evaluates with YCSB over a key-value state.  The store is a plain
dict plus a write counter used by tests to check that every replica
converges to the same state (the Agreement and Total-order theorems).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.types import READ, Transaction


@dataclass
class KeyValueStore:
    """A deterministic key-value state machine.

    Attributes:
        data: Current key/value mapping.
        applied: Number of write transactions applied.
    """

    data: Dict[str, str] = field(default_factory=dict)
    applied: int = 0

    def apply(
        self,
        transactions: Iterable[Transaction],
        origin: str,
        forwarded: Dict[str, Transaction],
    ) -> List[Tuple[Transaction, Optional[str]]]:
        """Apply one bundle's transactions in order, in a single pass.

        Stage 3 runs this for every transaction at every replica.  A read
        returns the value as of its position in the bundle; a write returns
        the value it wrote.  Returns ``(transaction, response value)``, in
        bundle order, for the transactions the caller must answer: those
        submitted through ``origin`` and those whose ids are in
        ``forwarded``, from which every executed id is popped.
        """
        data = self.data
        pop = forwarded.pop
        owed: List[Tuple[Transaction, Optional[str]]] = []
        writes = 0
        for transaction in transactions:
            if transaction.op == READ:
                value = data.get(transaction.key)
            else:
                value = transaction.value
                data[transaction.key] = value or ""
                writes += 1
            if (
                pop(transaction.txn_id, None) is not None
                or transaction.origin_replica == origin
            ):
                owed.append((transaction, value))
        self.applied += writes
        return owed

    def read(self, key: str) -> Optional[str]:
        """Read a key without going through a transaction."""
        return self.data.get(key)

    def snapshot(self) -> Dict[str, str]:
        """A copy of the current data, used for ``CurrState`` transfers."""
        return dict(self.data)

    def restore(self, snapshot: Dict[str, str]) -> None:
        """Replace the state with a received snapshot (joining replicas)."""
        self.data = dict(snapshot)

    def fingerprint(self) -> Tuple[int, int]:
        """A cheap state fingerprint: (#keys, #applied writes)."""
        return (len(self.data), self.applied)


__all__ = ["KeyValueStore"]

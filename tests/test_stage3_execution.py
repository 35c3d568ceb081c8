"""Stage 3 (Alg. 10) on a hand-built round: one pass per bundle.

Every replica executes every cluster's certified bundle in the predefined
cluster order.  The replica applies each bundle in a single pass, so these
tests pin the observable semantics of that pass against plain sequential
application: reads see the value as of their position, the owed client
responses go out once each in bundle order, and the executed ids leave the
forwarded-request table.
"""

from __future__ import annotations

from repro.core.messages import ClientResponse
from repro.core.types import OperationsBundle, make_transaction
from tests.helpers import small_deployment


def _hand_built_round():
    deployment = small_deployment(client_threads=0)
    replica = deployment.replicas["c0/r1"]
    me, peer = replica.process_id, "c0/r2"
    read_before_write = make_transaction("cl-a", me, "read", "j")
    write_k = make_transaction("cl-b", me, "write", "k", "v1")
    forwarded_read = make_transaction("cl-c", peer, "read", "k")
    write_j = make_transaction("cl-d", peer, "write", "j", "w")
    overwrite_k = make_transaction("cl-e", "c1/r0", "write", "k", "v2")
    remote_read = make_transaction("cl-f", me, "read", "k")
    local = [read_before_write, write_k, forwarded_read, write_j]
    remote = [overwrite_k, remote_read]
    replica.operations = {
        1: OperationsBundle(cluster_id=1, round_number=1, transactions=remote),
        0: OperationsBundle(cluster_id=0, round_number=1, transactions=local),
    }
    # The client retried ``forwarded_read`` through this replica; an
    # unrelated pending request must stay forwarded.
    pending = make_transaction("cl-g", peer, "write", "z", "x")
    replica._forwarded = {forwarded_read.txn_id: forwarded_read, pending.txn_id: pending}
    sent = []
    replica.apl.send = lambda destination, payload: sent.append((destination, payload))
    replica._execute()
    return replica, local + remote, pending, sent


def test_responses_sent_once_in_bundle_order_with_positional_reads():
    replica, transactions, _, sent = _hand_built_round()
    read_before_write, write_k, forwarded_read, _, _, remote_read = transactions
    responses = [
        (dest, msg.txn_id, msg.value, msg.committed_round)
        for dest, msg in sent
        if isinstance(msg, ClientResponse)
    ]
    executed_round = replica.round_number - 1
    assert responses == [
        # The read precedes its bundle's write of "j".
        ("cl-a", read_before_write.txn_id, None, executed_round),
        ("cl-b", write_k.txn_id, "v1", executed_round),
        # Forwarded here; reads "k" after the bundle's write.
        ("cl-c", forwarded_read.txn_id, "v1", executed_round),
        # Cluster 1 executes after cluster 0.
        ("cl-f", remote_read.txn_id, "v2", executed_round),
    ]


def test_state_and_log_match_sequential_application():
    replica, transactions, pending, _ = _hand_built_round()
    expected = {}
    for transaction in transactions:
        if not transaction.is_read:
            expected[transaction.key] = transaction.value or ""
    assert replica.kv.data == expected
    assert replica.kv.applied == 3
    assert replica.execution_log == [t.txn_id for t in transactions]
    assert all(t.txn_id in replica._executed_ids for t in transactions)
    assert replica._forwarded == {pending.txn_id: pending}
    assert replica.executed_operations == len(transactions)

"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brd import canonical_recs
from repro.core.config import failure_threshold
from repro.core.statemachine import KeyValueStore
from repro.core.types import Transaction, join_request, leave_request, merge_reconfigs
from repro.net.crypto import Certificate, KeyRegistry
from repro.sim.events import EventQueue
from repro.sim.rng import SeededRng
from repro.workload.zipf import ZipfianGenerator

requests = st.builds(
    lambda kind, pid, cid: join_request(pid, cid) if kind else leave_request(pid, cid),
    st.booleans(),
    st.text(alphabet="abcdef", min_size=1, max_size=4),
    st.integers(min_value=0, max_value=3),
)


class TestThresholdProperties:
    @given(st.integers(min_value=1, max_value=500))
    def test_failure_threshold_safety_bound(self, size):
        """f < size/3 always holds, and 2f+1 <= size (quorums exist)."""
        f = failure_threshold(size)
        assert 3 * f < size or size < 4
        assert 2 * f + 1 <= size

    @given(st.integers(min_value=1, max_value=160))
    def test_two_quorums_intersect_in_a_correct_replica(self, f):
        """For the paper's canonical cluster size n = 3f+1, two 2f+1 quorums
        overlap in at least f+1 replicas, hence in a correct one."""
        size = 3 * f + 1
        assert failure_threshold(size) == f
        quorum = 2 * f + 1
        assert 2 * quorum - size >= f + 1


class TestReconfigSetProperties:
    @given(st.lists(st.lists(requests, max_size=5), max_size=5))
    def test_merge_is_order_insensitive_and_deduplicating(self, groups):
        merged = merge_reconfigs(groups)
        assert list(merged) == sorted(set(merged))
        reversed_merge = merge_reconfigs(list(reversed(groups)))
        assert merged == reversed_merge

    @given(st.lists(requests, max_size=10))
    def test_canonical_recs_idempotent(self, items):
        once = canonical_recs(items)
        assert canonical_recs(once) == once

    @given(st.lists(requests, max_size=8), st.lists(requests, max_size=8))
    def test_merge_contains_every_input(self, a, b):
        merged = set(merge_reconfigs([a, b]))
        assert set(a) <= merged and set(b) <= merged


class TestCertificateProperties:
    @given(st.sets(st.sampled_from([f"p{i}" for i in range(12)]), max_size=12),
           st.integers(min_value=1, max_value=9))
    def test_certificate_valid_iff_threshold_met(self, signers, threshold):
        registry = KeyRegistry(seed=1)
        members = [f"p{i}" for i in range(12)]
        for member in members:
            registry.register(member)
        cert = Certificate("digest")
        for signer in signers:
            cert.add(registry.sign(signer, "digest"))
        assert registry.certificate_valid(cert, members, threshold) == (len(signers) >= threshold)


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), max_size=60))
    def test_events_pop_in_nondecreasing_time_order(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, lambda: None)
        popped = []
        while (event := queue.pop()) is not None:
            popped.append(event.time)
        assert popped == sorted(popped)
        assert len(popped) == len(times)


class TestWorkloadProperties:
    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=300), st.floats(min_value=0.0, max_value=1.5))
    def test_zipf_draws_stay_in_range(self, item_count, theta):
        zipf = ZipfianGenerator(item_count, theta, SeededRng(9))
        for _ in range(50):
            assert 0 <= zipf.next() < item_count

    @given(st.integers(min_value=0, max_value=2**31))
    def test_rng_streams_reproducible(self, seed):
        a = SeededRng(seed, "x")
        b = SeededRng(seed, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


class TestStateMachineProperties:
    @given(st.lists(st.tuples(st.sampled_from("abcde"), st.text(max_size=4)), max_size=40))
    def test_replay_determinism(self, writes):
        """Applying the same transaction sequence yields the same state."""
        first, second = KeyValueStore(), KeyValueStore()
        for index, (key, value) in enumerate(writes):
            txn = Transaction(
                txn_id=f"t{index}", client_id="c", origin_replica="r",
                op="write", key=key, value=value,
            )
            first.apply([txn], "r", {})
            second.apply([txn], "r", {})
        assert first.data == second.data
        assert first.fingerprint() == second.fingerprint()

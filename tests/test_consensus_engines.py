"""Tests for the local ordering engines (HotStuff-like and BFT-SMaRt-like)."""

from __future__ import annotations

import pytest

from repro.consensus.bftsmart import BftSmartEngine
from repro.consensus.hotstuff import HotStuffEngine
from repro.consensus.hotstuff_chained import ChainedHotStuffEngine
from repro.consensus.interface import ConsensusConfig, commit_digest
from repro.consensus.leader_election import ElectionComplaint, LeaderElection
from repro.consensus.registry import ENGINES, make_engine
from repro.errors import ConfigurationError
from repro.net.crypto import KeyRegistry
from tests import helpers
from repro.net.latency import LatencyModel
from repro.net.network import Network, NetworkConfig
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class EngineHost(Process):
    """A process hosting one consensus engine instance."""

    def __init__(self, process_id, simulator, network, members, engine_cls, timeout=1.0):
        super().__init__(process_id, simulator)
        self.members = members
        self.decisions = []
        self.complaints = []
        network.register(self, "us-west1")
        faults = (len(members) - 1) // 3
        self.engine = engine_cls(
            process_id,
            0,
            helpers.members_fn(members),
            lambda: faults,
            network,
            simulator,
            ConsensusConfig(instance_timeout=timeout),
            on_deliver=self.decisions.append,
            on_complain=self.complaints.append,
            fetch_value=lambda seq: [f"fallback-{seq}"],
        )

    def on_message(self, sender, envelope):
        self.engine.on_message(sender, envelope)


def build_cluster(engine_cls, size=4, seed=3, timeout=1.0):
    simulator = Simulator(seed=seed)
    registry = KeyRegistry(seed=seed)
    network = Network(
        simulator, LatencyModel(simulator.rng), registry, NetworkConfig(cpu_model=False)
    )
    members = [f"p{i}" for i in range(size)]
    hosts = [EngineHost(m, simulator, network, members, engine_cls, timeout) for m in members]
    return simulator, network, hosts


@pytest.mark.parametrize("engine_cls", [HotStuffEngine, ChainedHotStuffEngine, BftSmartEngine])
class TestEngines:
    def test_all_replicas_deliver_leaders_proposal(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls)
        value = ["tx1", "tx2", "tx3"]
        hosts[0].engine.propose(1, value)
        simulator.run(until=5.0)
        for host in hosts:
            assert len(host.decisions) == 1
            assert host.decisions[0].value == value
            assert host.decisions[0].sequence == 1

    def test_certificate_has_quorum_of_valid_commit_signatures(self, engine_cls):
        simulator, network, hosts = build_cluster(engine_cls)
        value = ["tx"]
        hosts[0].engine.propose(1, value)
        simulator.run(until=5.0)
        decision = hosts[1].decisions[0]
        members = [h.process_id for h in hosts]
        assert network.registry.certificate_valid(
            decision.certificate, members, threshold=3, digest=commit_digest(0, 1, value)
        )

    def test_non_leader_proposal_is_ignored(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls)
        hosts[2].engine.propose(1, ["rogue"])
        simulator.run(until=3.0)
        assert all(not host.decisions for host in hosts)

    def test_consecutive_sequences_deliver_independently(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls)
        hosts[0].engine.propose(1, ["a"])
        hosts[0].engine.propose(2, ["b"])
        simulator.run(until=5.0)
        for host in hosts:
            values = {d.sequence: d.value for d in host.decisions}
            assert values == {1: ["a"], 2: ["b"]}

    def test_timeout_raises_complaint_when_leader_silent(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls, timeout=0.5)
        for host in hosts[1:]:
            host.engine.start_instance(1)
        simulator.run(until=2.0)
        assert all(host.complaints for host in hosts[1:])

    def test_leader_change_reproposes_and_delivers(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls, timeout=0.5)
        # The initial leader (p0) is crashed before proposing.
        hosts[0].crash()
        for host in hosts[1:]:
            host.engine.start_instance(1)

        def change_leader():
            for host in hosts[1:]:
                host.engine.new_leader("p1", 1)

        simulator.schedule(1.0, change_leader)
        simulator.run(until=6.0)
        for host in hosts[1:]:
            assert len(host.decisions) == 1
            assert host.decisions[0].value == ["fallback-1"]

    def test_decisions_identical_across_replicas(self, engine_cls):
        simulator, _, hosts = build_cluster(engine_cls, size=7)
        hosts[0].engine.propose(1, ["x", "y"])
        simulator.run(until=5.0)
        digests = {repr(h.decisions[0].value) for h in hosts}
        assert len(digests) == 1

    def test_batch_digested_once_per_proposal(self, engine_cls):
        # The leader and every receiver read the proposal's memoised digest,
        # so the whole cluster holds one string object for the instance, and
        # the commit digest built from it matches a fresh walk of the value.
        simulator, _, hosts = build_cluster(engine_cls)
        value = ["tx1", "tx2", "tx3"]
        hosts[0].engine.propose(1, value)
        simulator.run(until=5.0)
        instances = [host.engine.instance(1) for host in hosts]
        assert all(instance.decided for instance in instances)
        shared = instances[0].value_digest
        assert all(instance.value_digest is shared for instance in instances)
        for host, instance in zip(hosts, instances):
            assert host.engine.instance_commit_digest(instance) == commit_digest(0, 1, value)


class TestRegistry:
    def test_known_engines(self):
        assert set(ENGINES) >= {"hotstuff", "hotstuff_chained", "bftsmart"}

    def test_make_engine_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_engine("raft")


class TestLeaderElection:
    def _cluster(self, size=4, seed=5):
        simulator = Simulator(seed=seed)
        registry = KeyRegistry(seed=seed)
        network = Network(
            simulator, LatencyModel(simulator.rng), registry, NetworkConfig(cpu_model=False)
        )
        members = [f"p{i}" for i in range(size)]
        elected = {m: [] for m in members}

        class Host(Process):
            def __init__(self, pid):
                super().__init__(pid, simulator)
                network.register(self, "us-west1")
                self.le = LeaderElection(
                    pid, 0, helpers.members_fn(members), lambda: (size - 1) // 3, network,
                    on_new_leader=lambda leader, ts, p=pid: elected[p].append((leader, ts)),
                )

            def on_message(self, sender, envelope):
                self.le.on_message(sender, envelope)

        hosts = [Host(m) for m in members]
        return simulator, hosts, elected

    def test_quorum_of_complaints_rotates_leader_everywhere(self):
        simulator, hosts, elected = self._cluster()
        for host in hosts[1:]:
            host.le.complain()
        simulator.run(until=2.0)
        for host in hosts:
            assert elected[host.process_id], f"{host.process_id} did not elect"
            leader, ts = elected[host.process_id][0]
            assert ts == 1
            assert leader == sorted(h.process_id for h in hosts)[1]

    def test_single_complaint_is_not_enough(self):
        simulator, hosts, elected = self._cluster()
        hosts[1].le.complain()
        simulator.run(until=2.0)
        assert all(not events for events in elected.values())

    def test_amplification_from_f_plus_one(self):
        simulator, hosts, elected = self._cluster(size=4)
        # f = 1, so two explicit complainers are enough: the rest amplify.
        hosts[1].le.complain()
        hosts[2].le.complain()
        simulator.run(until=2.0)
        assert all(elected[h.process_id] for h in hosts)

    def test_next_leader_is_local_and_immediate(self):
        simulator, hosts, elected = self._cluster()
        hosts[0].le.next_leader()
        assert elected["p0"] == [(sorted(h.process_id for h in hosts)[1], 1)]
        assert elected["p1"] == []

    def test_stale_timestamp_complaints_ignored(self):
        simulator, hosts, elected = self._cluster()
        stale = ElectionComplaint(cluster_id=0, ts=5)
        hosts[0].le.abeb.broadcast(stale)
        simulator.run(until=1.0)
        assert all(not events for events in elected.values())

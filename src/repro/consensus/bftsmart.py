"""A BFT-SMaRt-like local ordering engine (AVA-BFTSMART's substrate).

BFT-SMaRt's ordering core (MOD-SMaRt/VP-Consensus) is PBFT-shaped: the leader
broadcasts a proposal, then replicas run two all-to-all voting phases (WRITE
and ACCEPT).  Per decision the message complexity is quadratic in the cluster
size — the ``O(2zn²)`` row of the paper's Table I — which is why the paper
observes lower throughput for AVA-BFTSMART than AVA-HOTSTUFF at equal sizes.

ACCEPT votes sign the cluster/round/batch commit digest, so every replica can
assemble the commit certificate locally and stage 2 can forward it to remote
clusters for verification against ``C_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.consensus.interface import TotalOrderBroadcast, proposal_value_digest
from repro.net.crypto import Certificate, Signature
from repro.net.message import Envelope, Message, payload_digest


@dataclass
class BsPropose(Message):
    """Leader's proposal (PBFT pre-prepare) carrying the batch."""

    cluster_id: int
    sequence: int
    view: int
    value: Any

    def estimated_size(self) -> int:
        if isinstance(self.value, (list, tuple)):
            return 256 + 1024 * len(self.value)
        return 1280

    def verification_cost(self) -> int:
        return 1


@dataclass
class BsWrite(Message):
    """First all-to-all phase vote (PBFT prepare / BFT-SMaRt WRITE)."""

    cluster_id: int
    sequence: int
    view: int
    value_digest: str

    def verification_cost(self) -> int:
        return 2


@dataclass
class BsAccept(Message):
    """Second all-to-all phase vote (PBFT commit / BFT-SMaRt ACCEPT).

    Carries the sender's signature over the commit digest so receivers can
    assemble the remotely-verifiable commit certificate.  In the clustered
    setting every replica must verify these individual signatures (the
    certificate is later shipped to remote clusters), so the receiver-side
    cost is higher than HotStuff's, where votes flow only to the leader and
    replicas check a single aggregated quorum certificate.  This asymmetry is
    what makes the all-to-all phases expensive at larger cluster sizes.
    """

    cluster_id: int
    sequence: int
    view: int
    value_digest: str
    commit_signature: Optional[Signature] = None
    #: Opaque piggybacked BRD submission (``round_marker_fn``); all-to-all,
    #: so every replica sees every marker, but only the leader ingests them.
    round_marker: Any = None

    def verification_cost(self) -> int:
        return 4 if self.round_marker is None else 5


@dataclass
class BsViewState(Message):
    """View-change report: the value (if any) a replica saw proposed."""

    cluster_id: int
    sequence: int
    view: int
    value: Any = None

    def estimated_size(self) -> int:
        if isinstance(self.value, (list, tuple)):
            return 256 + 1024 * len(self.value)
        return 512


@dataclass
class BsDecide(Message):
    """Catch-up reply: a decided value plus its commit certificate.

    Sent point-to-point by a leader whose view-state inbox reports a
    sequence it already decided — the reporter missed the accept quorum
    across a view change.  Self-certifying: the receiver checks the
    certificate against the carried value's commit digest.
    """

    cluster_id: int
    sequence: int
    view: int
    value: Any = None
    certificate: Optional[Certificate] = None

    def estimated_size(self) -> int:
        size = 256 + (96 * len(self.certificate) if self.certificate else 0)
        if isinstance(self.value, (list, tuple)):
            size += 1024 * len(self.value)
        return size

    def verification_cost(self) -> int:
        return max(1, len(self.certificate) if self.certificate else 0)


class BftSmartEngine(TotalOrderBroadcast):
    """PBFT-style total-order broadcast with all-to-all voting phases."""

    MESSAGE_TYPES = (BsPropose, BsWrite, BsAccept, BsViewState, BsDecide)

    def __init__(self, *args, fetch_value: Optional[Callable[[int], Any]] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fetch_value = fetch_value
        self._writes: Dict[tuple, set] = {}
        self._accepts: Dict[tuple, Certificate] = {}
        self._accept_senders: Dict[tuple, set] = {}
        self._wrote: Dict[tuple, bool] = {}
        self._accepted: Dict[tuple, bool] = {}
        #: (sequence, view) pairs this leader already proposed for (one
        #: proposal per view, no self-equivocation — see HotStuff's twin).
        self._proposed_views: Dict[tuple, bool] = {}
        #: View-change reports per (sequence, view), keyed by sender so
        #: re-sent reports cannot double-count toward quorum.
        self._view_states: Dict[tuple, Dict[str, BsViewState]] = {}
        #: WRITE/ACCEPT votes that arrived before the proposal (network
        #: jitter can reorder a peer's write ahead of the leader's propose),
        #: keyed by (sequence, view) and replayed once the value is known —
        #: dropping them can cost the quorum in small clusters.
        self._early_votes: Dict[tuple, List[tuple]] = {}

    # ------------------------------------------------------------------ #
    # Proposing
    # ------------------------------------------------------------------ #
    def propose(self, sequence: int, value: Any) -> None:
        """Leader entry point: broadcast the proposal to the cluster.

        At most one proposal per (sequence, view) — replicas WRITE once per
        view, so overwriting an in-flight proposal (the batch timer racing
        the view-change re-proposal) would strand the instance with votes
        split across digests.
        """
        instance = self.instance(sequence)
        if instance.decided:
            return
        if not self.is_leader():
            instance.value = value
            instance.value_digest = payload_digest(value)
            return
        key = (sequence, self.view_ts)
        if self._proposed_views.get(key):
            return
        self._proposed_views[key] = True
        proposal = BsPropose(
            cluster_id=self.cluster_id,
            sequence=sequence,
            view=self.view_ts,
            value=value,
        )
        instance.value = value
        instance.value_digest = proposal_value_digest(proposal)
        self.start_instance(sequence)
        self.abeb.broadcast(proposal)

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def on_message(self, sender: str, envelope: Envelope) -> bool:
        payload = envelope.payload
        if not isinstance(payload, self.MESSAGE_TYPES):
            return False
        if payload.cluster_id != self.cluster_id:
            return False
        if isinstance(payload, BsPropose):
            self._on_propose(sender, payload)
        elif isinstance(payload, BsWrite):
            self._on_write(sender, payload)
        elif isinstance(payload, BsAccept):
            self._on_accept(sender, payload)
        elif isinstance(payload, BsViewState):
            self._on_view_state(sender, payload)
        elif isinstance(payload, BsDecide):
            self._on_decide_catchup(sender, payload)
        return True

    def _on_propose(self, sender: str, proposal: BsPropose) -> None:
        if sender != self.leader or proposal.view != self.view_ts:
            return
        instance = self.instance(proposal.sequence)
        if instance.decided:
            return
        instance.value = proposal.value
        instance.value_digest = proposal_value_digest(proposal)
        self.start_instance(proposal.sequence)
        key = (proposal.sequence, proposal.view)
        if not self._wrote.get(key):
            self._wrote[key] = True
            self.abeb.broadcast(
                BsWrite(
                    cluster_id=self.cluster_id,
                    sequence=proposal.sequence,
                    view=proposal.view,
                    value_digest=instance.value_digest,
                )
            )
        for voter, vote in self._early_votes.pop(key, []):
            if isinstance(vote, BsWrite):
                self._on_write(voter, vote)
            else:
                self._on_accept(voter, vote)

    def _on_write(self, sender: str, write: BsWrite) -> None:
        if write.view != self.view_ts:
            return
        instance = self.instance(write.sequence)
        if instance.decided:
            return
        if instance.value_digest is None:
            # Jitter reordered this write ahead of the proposal; buffer it.
            self._early_votes.setdefault((write.sequence, write.view), []).append((sender, write))
            return
        if write.value_digest != instance.value_digest:
            return
        key = (write.sequence, write.view)
        senders = self._writes.setdefault(key, set())
        senders.add(sender)
        if len(senders) < self.quorum():
            return
        if self._accepted.get(key):
            return
        self._accepted[key] = True
        digest = self.instance_commit_digest(instance)
        instance.prepared_value = instance.value
        round_marker = None
        if self.round_marker_fn is not None:
            round_marker = self.round_marker_fn(write.sequence)
        self.abeb.broadcast(
            BsAccept(
                cluster_id=self.cluster_id,
                sequence=write.sequence,
                view=write.view,
                value_digest=instance.value_digest,
                commit_signature=self.registry.sign(self.owner, digest),
                round_marker=round_marker,
            )
        )

    def _on_accept(self, sender: str, accept: BsAccept) -> None:
        if accept.view != self.view_ts:
            return
        if accept.round_marker is not None and self.on_round_marker is not None:
            self.on_round_marker(accept.sequence, sender, accept.round_marker)
        instance = self.instance(accept.sequence)
        if instance.decided:
            return
        if instance.value is None:
            self._early_votes.setdefault((accept.sequence, accept.view), []).append((sender, accept))
            return
        if accept.value_digest != instance.value_digest:
            return
        digest = self.instance_commit_digest(instance)
        key = (accept.sequence, accept.view)
        cert = self._accepts.setdefault(key, Certificate(digest, kind="commit"))
        senders = self._accept_senders.setdefault(key, set())
        if accept.commit_signature is None:
            return
        if accept.commit_signature.digest != digest:
            return
        if not self.registry.verify(accept.commit_signature):
            return
        cert.add(accept.commit_signature)
        senders.add(sender)
        if len(cert) >= self.quorum():
            self._decide(accept.sequence, instance.value, cert)

    # ------------------------------------------------------------------ #
    # View change
    # ------------------------------------------------------------------ #
    def on_view_change(self) -> None:
        """Report the values seen for pending instances to the new leader."""
        for sequence in list(self.pending_sequences()):
            instance = self.instance(sequence)
            self.start_instance(sequence)
            self.apl.send(
                self.leader,
                BsViewState(
                    cluster_id=self.cluster_id,
                    sequence=sequence,
                    view=self.view_ts,
                    value=instance.value,
                ),
            )

    def _on_view_state(self, sender: str, report: BsViewState) -> None:
        decision = self.decisions.get(report.sequence)
        if decision is not None:
            # The reporter missed the accept quorum across a view change;
            # any decided replica answers with the self-certifying decision
            # (the stuck replica may be the leader itself — see BsDecide).
            if sender != self.owner:
                self.apl.send(
                    sender,
                    BsDecide(
                        cluster_id=self.cluster_id,
                        sequence=report.sequence,
                        view=self.view_ts,
                        value=decision.value,
                        certificate=decision.certificate,
                    ),
                )
            return
        if not self.is_leader() or report.view != self.view_ts:
            return
        instance = self.instance(report.sequence)
        key = (report.sequence, report.view)
        reports = self._view_states.setdefault(key, {})
        reports[sender] = report  # dedup: re-sent reports must not double-count
        if len(reports) < self.quorum():
            return
        value = next((r.value for r in reports.values() if r.value is not None), None)
        if value is None:
            value = instance.value
        if value is None and self.fetch_value is not None:
            value = self.fetch_value(report.sequence)
        if value is None:
            return
        del self._view_states[key]
        self.propose(report.sequence, value)

    def _on_decide_catchup(self, sender: str, message: BsDecide) -> None:
        """Adopt a value-carrying decision (a decided peer's catch-up reply)."""
        self._adopt_certified_decision(message.sequence, message.value, message.certificate)

    def _request_catchup(self, sequence: int) -> None:
        """Re-report a stuck instance to the whole cluster (see base class).

        Broadcast: when a quorum already decided the sequence, only the
        decided peers — possibly not the leader — hold the decision.
        """
        instance = self.instance(sequence)
        self.abeb.broadcast(
            BsViewState(
                cluster_id=self.cluster_id,
                sequence=sequence,
                view=self.view_ts,
                value=instance.value,
            ),
        )


__all__ = ["BftSmartEngine", "BsAccept", "BsDecide", "BsPropose", "BsViewState", "BsWrite"]

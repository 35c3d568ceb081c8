"""A HotStuff-like local ordering engine (AVA-HOTSTUFF's substrate).

This is a faithful-in-structure, simplified-in-detail model of basic
(non-pipelined) HotStuff: the leader drives three linear voting phases
(prepare, pre-commit, commit) followed by a decide broadcast.  All
communication is leader-to-all and all-to-leader, so the per-decision message
complexity is linear in the cluster size — the ``O(8zn)`` row of the paper's
Table I.

The commit-phase votes sign the cluster/round/batch commit digest, so the
resulting certificate is exactly what Hamava's stage 2 forwards to remote
clusters and what remote replicas verify against their view of ``C_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.consensus.interface import TotalOrderBroadcast, proposal_value_digest
from repro.net.crypto import Certificate, Signature
from repro.net.message import Envelope, Message, payload_digest

#: Ordered phases of one HotStuff instance.
PHASES = ("prepare", "precommit", "commit")

#: Phase preceding each quorum-carrying phase (avoids a list search per message).
_PREVIOUS_PHASE = {"precommit": "prepare", "commit": "precommit"}


@dataclass
class HsProposal(Message):
    """Leader's prepare-phase proposal carrying the batch."""

    cluster_id: int
    sequence: int
    view: int
    value: Any

    def estimated_size(self) -> int:
        return 256 + _value_size(self.value)

    def verification_cost(self) -> int:
        return 1


@dataclass
class HsVote(Message):
    """A replica's vote for one phase, sent to the leader.

    Commit-phase votes may carry an opaque ``round_marker`` (the replica's
    piggybacked BRD submission for the round — see ``round_marker_fn`` in
    ``consensus/interface.py``); the marker's signature is verified by the
    receiver, so it adds one verification to the message cost.
    """

    cluster_id: int
    sequence: int
    view: int
    phase: str
    value_digest: str
    commit_signature: Optional[Signature] = None
    round_marker: Any = None

    def verification_cost(self) -> int:
        return 1 if self.round_marker is None else 2


@dataclass
class HsPhase(Message):
    """Leader's pre-commit / commit / decide broadcast carrying a QC."""

    cluster_id: int
    sequence: int
    view: int
    phase: str
    value_digest: str
    certificate: Certificate = field(default_factory=lambda: Certificate(""))
    #: Opaque piggyback slot on the decide broadcast (``decide_extra_fn``);
    #: Hamava ships the quiet-round empty-unanimity proof here.
    extra: Any = None
    #: Catch-up decides (leader → laggard replies) carry the decided value
    #: so a replica that never saw the winning proposal can verify the
    #: commit certificate against it and adopt the decision.  Broadcast
    #: decides leave it ``None`` — receivers hold the value already.
    value: Any = None

    def estimated_size(self) -> int:
        size = 256 + 96 * len(self.certificate)
        extra = self.extra
        if extra is not None:
            size += 128 + 96 * len(extra) if hasattr(extra, "__len__") else 128
        if self.value is not None:
            size += _value_size(self.value)
        return size

    def verification_cost(self) -> int:
        # HotStuff aggregates votes into a quorum certificate that verifies in
        # (near) constant time (threshold signatures); receivers do not pay a
        # per-signature cost, which is the core of its linearity claim.
        return 2


@dataclass
class HsNewView(Message):
    """View-change report sent to the new leader."""

    cluster_id: int
    sequence: int
    view: int
    prepared_value: Any = None
    prepared_certificate: Optional[Certificate] = None

    def estimated_size(self) -> int:
        size = 256 + _value_size(self.prepared_value)
        if self.prepared_certificate is not None:
            size += 96 * len(self.prepared_certificate)
        return size

    def verification_cost(self) -> int:
        if self.prepared_certificate is None:
            return 1
        return max(1, len(self.prepared_certificate))


def _value_size(value: Any) -> int:
    """Rough serialized size of a proposal value (batch of transactions)."""
    if value is None:
        return 0
    if isinstance(value, (list, tuple)):
        return 1024 * len(value)
    return 1024


def _phase_digest(cluster_id: int, sequence: int, view: int, phase: str, value_digest: str) -> str:
    """Digest replicas vote over for the non-commit phases."""
    return f"hs|{phase}|c{cluster_id}|s{sequence}|v{view}|{value_digest}"


class HotStuffEngine(TotalOrderBroadcast):
    """Leader-driven, linear-communication total-order broadcast."""

    MESSAGE_TYPES = (HsProposal, HsVote, HsPhase, HsNewView)

    def __init__(self, *args, fetch_value: Optional[Callable[[int], Any]] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fetch_value = fetch_value
        #: Per (sequence, view, phase) vote certificates collected by the leader.
        self._vote_certs: Dict[tuple, Certificate] = {}
        #: Per (sequence, view, phase) commit-digest certificates (commit phase).
        self._commit_certs: Dict[tuple, Certificate] = {}
        self._voted: Dict[tuple, bool] = {}
        #: Per (sequence, view, completed phase) guard so each quorum fires
        #: its follow-up broadcast exactly once.  Without it every vote past
        #: the quorum re-broadcast the next phase (and receivers dropped the
        #: duplicate via ``_voted``) — two redundant broadcasts per decision.
        self._advanced: Dict[tuple, bool] = {}
        #: (sequence, view) pairs this leader already proposed for (see
        #: :meth:`propose` — one proposal per view, no self-equivocation).
        self._proposed_views: Dict[tuple, bool] = {}
        #: View-change reports per (sequence, view), keyed by sender so a
        #: laggard re-sending its report cannot double-count toward quorum.
        self._new_views: Dict[tuple, Dict[str, HsNewView]] = {}

    # ------------------------------------------------------------------ #
    # Proposing
    # ------------------------------------------------------------------ #
    def propose(self, sequence: int, value: Any) -> None:
        """Leader entry point: broadcast the prepare-phase proposal.

        At most one proposal per (sequence, view): a second ``propose`` in
        the same view (e.g. the new leader's batch timer racing its own
        view-change re-proposal) must not overwrite the in-flight value —
        replicas vote once per phase per view, so a self-equivocating
        leader would strand the instance with votes split across digests.
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
        proposal = HsProposal(
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
        if isinstance(payload, HsProposal):
            self._on_proposal(sender, payload)
        elif isinstance(payload, HsVote):
            self._on_vote(sender, payload)
        elif isinstance(payload, HsPhase):
            self._on_phase(sender, payload)
        elif isinstance(payload, HsNewView):
            self._on_new_view(sender, payload)
        return True

    # -- replica side --------------------------------------------------- #
    def _on_proposal(self, sender: str, proposal: HsProposal) -> None:
        if sender != self.leader or proposal.view != self.view_ts:
            return
        instance = self.instance(proposal.sequence)
        if instance.decided:
            return
        instance.value = proposal.value
        instance.value_digest = proposal_value_digest(proposal)
        self.start_instance(proposal.sequence)
        self._send_vote(proposal.sequence, "prepare", instance.value_digest)

    def _send_vote(self, sequence: int, phase: str, value_digest: str) -> None:
        key = (sequence, self.view_ts, phase)
        if self._voted.get(key):
            return
        self._voted[key] = True
        commit_signature = None
        round_marker = None
        if phase == "commit":
            instance = self.instance(sequence)
            digest = self.instance_commit_digest(instance)
            commit_signature = self.registry.sign(self.owner, digest)
            if self.round_marker_fn is not None:
                round_marker = self.round_marker_fn(sequence)
        vote = HsVote(
            cluster_id=self.cluster_id,
            sequence=sequence,
            view=self.view_ts,
            phase=phase,
            value_digest=value_digest,
            commit_signature=commit_signature,
            round_marker=round_marker,
        )
        self.apl.send(self.leader, vote)

    def _on_phase(self, sender: str, message: HsPhase) -> None:
        if message.phase == "decide" and message.value is not None:
            # Catch-up replies are self-certifying (the certificate is
            # checked against the carried value), so they are accepted
            # regardless of the local view — the laggard's whole problem is
            # that its view of the leader is behind.
            self._on_catchup_decide(sender, message)
            return
        if sender != self.leader or message.view != self.view_ts:
            return
        instance = self.instance(message.sequence)
        if instance.value_digest is None or instance.value_digest != message.value_digest:
            # The replica never saw the proposal (or saw a conflicting one);
            # it cannot vouch for the value, so it abstains.
            return
        if message.phase in ("precommit", "commit"):
            expected = _phase_digest(
                self.cluster_id,
                message.sequence,
                message.view,
                _PREVIOUS_PHASE[message.phase],
                message.value_digest,
            )
            if not self.registry.certificate_valid(
                message.certificate, self.members(), self.quorum(), digest=expected
            ):
                return
            if message.phase == "commit":
                instance.prepared_value = instance.value
                instance.prepared_certificate = message.certificate
            self._send_vote(message.sequence, message.phase, message.value_digest)
        elif message.phase == "decide":
            digest = self.instance_commit_digest(instance)
            if not self.registry.certificate_valid(
                message.certificate, self.members(), self.quorum(), digest=digest
            ):
                return
            self._decide(message.sequence, instance.value, message.certificate)
            if message.extra is not None and self.on_decide_extra is not None:
                self.on_decide_extra(message.sequence, sender, message.extra)

    def _on_catchup_decide(self, sender: str, message: HsPhase) -> None:
        """Adopt a value-carrying decide (a decided peer's reply to a laggard)."""
        self._adopt_certified_decision(message.sequence, message.value, message.certificate)

    # -- leader side ----------------------------------------------------- #
    def _on_vote(self, sender: str, vote: HsVote) -> None:
        if not self.is_leader() or vote.view != self.view_ts:
            return
        if vote.round_marker is not None and self.on_round_marker is not None:
            self.on_round_marker(vote.sequence, sender, vote.round_marker)
        instance = self.instance(vote.sequence)
        if instance.decided or instance.value is None:
            return
        if vote.value_digest != instance.value_digest:
            return
        key = (vote.sequence, vote.view, vote.phase)
        phase_digest = _phase_digest(
            self.cluster_id, vote.sequence, vote.view, vote.phase, vote.value_digest
        )
        cert = self._vote_certs.setdefault(key, Certificate(phase_digest, kind=vote.phase))
        cert.add(self.registry.sign(sender, phase_digest))
        if vote.phase == "commit" and vote.commit_signature is not None:
            cdigest = self.instance_commit_digest(instance)
            commit_cert = self._commit_certs.setdefault(key, Certificate(cdigest, kind="commit"))
            if self.registry.verify(vote.commit_signature) and vote.commit_signature.digest == cdigest:
                commit_cert.add(vote.commit_signature)
        if len(cert) < self.quorum():
            return
        self._advance_phase(vote.sequence, vote.phase, cert)

    def _advance_phase(self, sequence: int, completed_phase: str, cert: Certificate) -> None:
        instance = self.instance(sequence)
        key = (sequence, self.view_ts, completed_phase)
        if completed_phase == "prepare":
            next_phase = "precommit"
        elif completed_phase == "precommit":
            next_phase = "commit"
        elif completed_phase == "commit":
            commit_cert = self._commit_certs.get((sequence, self.view_ts, "commit"))
            if commit_cert is None or len(commit_cert) < self.quorum():
                return
            if self._advanced.get(key):
                return
            self._advanced[key] = True
            extra = None
            if self.decide_extra_fn is not None:
                extra = self.decide_extra_fn(sequence)
            decide = HsPhase(
                cluster_id=self.cluster_id,
                sequence=sequence,
                view=self.view_ts,
                phase="decide",
                value_digest=instance.value_digest or "",
                certificate=commit_cert,
                extra=extra,
            )
            self.abeb.broadcast(decide)
            return
        else:
            return
        if self._advanced.get(key):
            return
        self._advanced[key] = True
        message = HsPhase(
            cluster_id=self.cluster_id,
            sequence=sequence,
            view=self.view_ts,
            phase=next_phase,
            value_digest=instance.value_digest or "",
            certificate=cert,
        )
        self.abeb.broadcast(message)

    # ------------------------------------------------------------------ #
    # View change
    # ------------------------------------------------------------------ #
    def on_view_change(self) -> None:
        """Report pending instances to the new leader and re-arm timers."""
        for sequence in list(self.pending_sequences()):
            instance = self.instance(sequence)
            self.start_instance(sequence)
            report = HsNewView(
                cluster_id=self.cluster_id,
                sequence=sequence,
                view=self.view_ts,
                prepared_value=instance.prepared_value,
                prepared_certificate=instance.prepared_certificate,
            )
            self.apl.send(self.leader, report)

    def _on_new_view(self, sender: str, report: HsNewView) -> None:
        decision = self.decisions.get(report.sequence)
        if decision is not None:
            # The reporter is behind a decision this replica already holds
            # (it missed a partial decide across a view change); answer with
            # a value-carrying decide it can verify and adopt.  Any decided
            # replica answers — the stuck one may *be* the leader, in which
            # case only its peers can repair it.
            if sender != self.owner:
                self.apl.send(
                    sender,
                    HsPhase(
                        cluster_id=self.cluster_id,
                        sequence=report.sequence,
                        view=self.view_ts,
                        phase="decide",
                        value_digest=payload_digest(decision.value),
                        certificate=decision.certificate,
                        value=decision.value,
                    ),
                )
            return
        if not self.is_leader() or report.view != self.view_ts:
            return
        instance = self.instance(report.sequence)
        key = (report.sequence, report.view)
        reports = self._new_views.setdefault(key, {})
        reports[sender] = report  # dedup: re-sent reports must not double-count
        if len(reports) < self.quorum():
            return
        value = None
        for item in reports.values():
            if item.prepared_value is not None and item.prepared_certificate is not None:
                value = item.prepared_value
                break
        if value is None:
            value = instance.value
        if value is None and self.fetch_value is not None:
            value = self.fetch_value(report.sequence)
        if value is None:
            return
        del self._new_views[key]
        self.propose(report.sequence, value)

    def _request_catchup(self, sequence: int) -> None:
        """Re-report a stuck instance to the whole cluster (see base class).

        Broadcast, not leader-only: when a quorum already decided the
        sequence, the decided replicas no longer consider it pending and
        will never re-report it — they (not the possibly equally-stuck
        leader) hold the decision this replica is missing.
        """
        instance = self.instance(sequence)
        self.abeb.broadcast(
            HsNewView(
                cluster_id=self.cluster_id,
                sequence=sequence,
                view=self.view_ts,
                prepared_value=instance.prepared_value,
                prepared_certificate=instance.prepared_certificate,
            ),
        )


__all__ = ["HotStuffEngine", "HsNewView", "HsPhase", "HsProposal", "HsVote", "PHASES"]

"""Chained (pipelined) HotStuff: two phases per decision, decide rides the chain.

The basic engine (``consensus/hotstuff.py``) drives three linear vote rounds
(prepare / pre-commit / commit) plus a decide broadcast per decision — the
paper's Table-I ``O(8zn)`` row, kept untouched for fidelity.  This engine
collapses the pipeline the way chained HotStuff variants (and two-phase
descendants like Jolteon) do:

* **Two vote rounds instead of three.**  The leader's proposal starts a
  *prepare* round; the prepare quorum certificate comes back in a single
  *lock* broadcast; replicas lock on it and answer with their *commit* vote
  (which signs the Hamava commit digest and carries the piggybacked BRD
  round marker, exactly like the basic engine's commit vote).  The generic
  pre-commit round disappears.
* **The decide broadcast rides the next proposal.**  Once the leader holds
  the ``2f+1`` commit signatures it decides locally and, instead of
  broadcasting an explicit decide, attaches the commit certificate (and the
  ``decide_extra_fn`` payload — Hamava's quiet-round proof) to its *next*
  proposal in the chain.  A short grace timer
  (``ConsensusConfig.chained_decide_grace``) falls back to an explicit
  decide broadcast when no successor proposal shows up in time (end of a
  run, a stalled round), so followers are never left behind by more than
  the grace period.

Per steady-state decision this is one proposal + ``n-1`` prepare votes +
one lock broadcast + ``n-1`` commit votes — 4 broadcasts' worth of traffic
down from basic HotStuff's 7 (proposal, 3 vote rounds, pre-commit, commit
and decide broadcasts).

Safety argument (the two-phase commit rule):

* *One QC per view.*  Replicas vote at most once per (sequence, view,
  phase) and a certificate needs ``2f+1`` of ``3f+1`` members, so two
  conflicting prepare QCs for the same (sequence, view) would need
  ``2(2f+1) - (3f+1) = f+1`` correct replicas to vote twice — impossible.
* *Commit implies a locked quorum.*  A decision requires ``2f+1`` commit
  votes, and a correct replica only sends its commit vote after installing
  the prepare QC as its **lock** (value, view).  Hence at decision time at
  least ``f+1`` correct replicas are locked on the decided value at that
  view or higher.
* *View change re-anchors on the highest lock.*  A new leader collects
  ``2f+1`` ``ChNewView`` reports, each carrying the reporter's prepared
  certificate and its view, verifies and re-proposes the value of the
  **highest-view** valid certificate (attached to the re-proposal as its
  ``justify``).  Any report quorum intersects the decision's locked quorum
  in a correct replica, so a decided value is always among the reports,
  and no *conflicting* prepare QC can exist at its view or above (one QC
  per view + the voting rule below), so the highest-view certificate is
  the decided value.
* *The lock voting rule.*  A locked replica refuses prepare votes for a
  conflicting value unless the proposal's ``justify`` QC is valid at a view
  ``>=`` its lock's view.  A Byzantine leader therefore cannot assemble a
  conflicting QC after a decision: the ``2f+1`` votes it needs would have
  to include a locked correct replica, which demands a justify at or above
  the decided view — and no such conflicting justify exists.

The commit certificate still signs ``commit_digest(cluster, seq, batch)``,
so stage 2 ships it to remote clusters unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.consensus.hotstuff import _value_size
from repro.consensus.interface import TotalOrderBroadcast, proposal_value_digest
from repro.net.crypto import Certificate, Signature
from repro.net.message import Envelope, Message, payload_digest

#: Vote rounds of one chained instance (the basic engine's "precommit" is gone).
CHAINED_PHASES = ("prepare", "commit")


@dataclass
class ChProposal(Message):
    """Leader's proposal: batch + optional justify QC + piggybacked decide.

    ``justify_*`` re-anchor a re-proposal after a view change on the highest
    prepared certificate (see the module docstring); steady-state proposals
    leave them empty.  ``decide_*`` carry the predecessor's decision down
    the chain — the commit certificate, and the ``decide_extra_fn`` payload
    (Hamava's quiet-round proof) — replacing the explicit decide broadcast.
    """

    cluster_id: int
    sequence: int
    view: int
    value: Any
    justify_view: int = -1
    justify_certificate: Optional[Certificate] = None
    decide_sequence: int = -1
    decide_certificate: Optional[Certificate] = None
    decide_extra: Any = None

    def estimated_size(self) -> int:
        size = 256 + _value_size(self.value)
        if self.justify_certificate is not None:
            size += 96 * len(self.justify_certificate)
        if self.decide_certificate is not None:
            size += 96 * len(self.decide_certificate)
        extra = self.decide_extra
        if extra is not None:
            size += 128 + 96 * len(extra) if hasattr(extra, "__len__") else 128
        return size

    def verification_cost(self) -> int:
        # Each attached QC verifies in (near) constant time — threshold
        # signatures, the same linearity claim as the basic engine's phases.
        cost = 1
        if self.justify_certificate is not None:
            cost += 1
        if self.decide_certificate is not None:
            cost += 1
        return cost


@dataclass
class ChVote(Message):
    """A replica's prepare or commit vote, sent to the leader.

    Commit votes sign the Hamava commit digest and may carry the replica's
    piggybacked BRD submission, exactly like the basic engine's commit vote.
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
class ChLock(Message):
    """Leader's single intermediate broadcast carrying the prepare QC."""

    cluster_id: int
    sequence: int
    view: int
    value_digest: str
    certificate: Certificate = field(default_factory=lambda: Certificate(""))

    def estimated_size(self) -> int:
        return 256 + 96 * len(self.certificate)

    def verification_cost(self) -> int:
        return 2


@dataclass
class ChDecide(Message):
    """Explicit decide: the grace-timer fallback and catch-up replies.

    Steady state never sends this — the decision rides the next proposal.
    Catch-up replies to laggards carry the decided ``value`` so the receiver
    can verify the commit certificate against it and adopt the decision.
    """

    cluster_id: int
    sequence: int
    view: int
    value_digest: str
    certificate: Certificate = field(default_factory=lambda: Certificate(""))
    extra: Any = None
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
        return 2


@dataclass
class ChNewView(Message):
    """View-change report: the reporter's lock (prepared QC + its view)."""

    cluster_id: int
    sequence: int
    view: int
    prepared_value: Any = None
    prepared_certificate: Optional[Certificate] = None
    prepared_view: int = -1

    def estimated_size(self) -> int:
        size = 256 + _value_size(self.prepared_value)
        if self.prepared_certificate is not None:
            size += 96 * len(self.prepared_certificate)
        return size

    def verification_cost(self) -> int:
        if self.prepared_certificate is None:
            return 1
        return max(1, len(self.prepared_certificate))


def _chain_digest(cluster_id: int, sequence: int, view: int, phase: str, value_digest: str) -> str:
    """Digest replicas vote over (distinct prefix from the basic engine)."""
    return f"chs|{phase}|c{cluster_id}|s{sequence}|v{view}|{value_digest}"


class ChainedHotStuffEngine(TotalOrderBroadcast):
    """Two-phase pipelined HotStuff with the decide amortised over the chain."""

    MESSAGE_TYPES = (ChProposal, ChVote, ChLock, ChDecide, ChNewView)

    def __init__(self, *args, fetch_value: Optional[Callable[[int], Any]] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fetch_value = fetch_value
        #: Per (sequence, view, phase) vote certificates collected by the leader.
        self._vote_certs: Dict[tuple, Certificate] = {}
        #: Per (sequence, view) commit-digest certificates (commit phase).
        self._commit_certs: Dict[tuple, Certificate] = {}
        self._voted: Dict[tuple, bool] = {}
        #: Single-fire guards per (sequence, view, phase) quorum.
        self._advanced: Dict[tuple, bool] = {}
        #: (sequence, view) pairs this leader already proposed for.
        self._proposed_views: Dict[tuple, bool] = {}
        #: View-change reports per (sequence, view), keyed by sender.
        self._new_views: Dict[tuple, Dict[str, ChNewView]] = {}
        #: This replica's lock per sequence: (view, value_digest).
        self._locked: Dict[int, Tuple[int, str]] = {}
        #: View of the prepared certificate held per sequence (for reports).
        self._prepared_view: Dict[int, int] = {}
        #: Justify QC staged for the next re-proposal: seq -> (view, cert).
        self._justify: Dict[int, Tuple[int, Certificate]] = {}
        #: Sequences whose decision this leader already announced (either a
        #: piggyback on a successor proposal or an explicit ChDecide).
        self._announced: Set[int] = set()
        #: Decide-extra payloads snapshotted at local-decide time, awaiting
        #: their chained (or grace-fallback) announcement.
        self._pending_extras: Dict[int, Any] = {}
        #: Grace timers between a local decide and its chained announcement.
        self._decide_pool = self.simulator.deadline_pool(
            self._on_decide_grace, name=f"{self.owner}:tob-chain"
        )

    def set_timer_rate(self, rate: float) -> None:
        super().set_timer_rate(rate)
        self._decide_pool.rate = rate

    # ------------------------------------------------------------------ #
    # Proposing
    # ------------------------------------------------------------------ #
    def propose(self, sequence: int, value: Any) -> None:
        """Leader entry point: broadcast a chained proposal.

        At most one proposal per (sequence, view), like the basic engine.
        The non-leader branch records the local batch only if no proposal
        arrived yet: chained followers learn their predecessor's decision
        *from* the successor proposal, so the replica round loop can lag the
        engine by a whole instance — its late ``propose`` must not clobber
        the in-flight proposed value it already prepare-voted for.
        """
        instance = self.instance(sequence)
        if instance.decided:
            return
        if not self.is_leader():
            if instance.value_digest is None:
                instance.value = value
                instance.value_digest = payload_digest(value)
            return
        key = (sequence, self.view_ts)
        if self._proposed_views.get(key):
            return
        self._proposed_views[key] = True
        proposal = ChProposal(
            cluster_id=self.cluster_id,
            sequence=sequence,
            view=self.view_ts,
            value=value,
        )
        instance.value = value
        instance.value_digest = proposal_value_digest(proposal)
        self.start_instance(sequence)
        justify = self._justify.pop(sequence, None)
        if justify is not None:
            proposal.justify_view, proposal.justify_certificate = justify
        prev = sequence - 1
        if prev >= 0 and prev not in self._announced:
            decision = self.decisions.get(prev)
            if decision is not None:
                # Fold the predecessor's decide into this proposal and
                # disarm its grace fallback — the chain carries it now.
                self._announced.add(prev)
                self._decide_pool.disarm(prev)
                proposal.decide_sequence = prev
                proposal.decide_certificate = decision.certificate
                proposal.decide_extra = self._pending_extras.pop(prev, None)
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
        if isinstance(payload, ChProposal):
            self._on_proposal(sender, payload)
        elif isinstance(payload, ChVote):
            self._on_vote(sender, payload)
        elif isinstance(payload, ChLock):
            self._on_lock(sender, payload)
        elif isinstance(payload, ChDecide):
            self._on_decide(sender, payload)
        elif isinstance(payload, ChNewView):
            self._on_new_view(sender, payload)
        return True

    # -- replica side --------------------------------------------------- #
    def _on_proposal(self, sender: str, proposal: ChProposal) -> None:
        if proposal.decide_sequence >= 0 and proposal.decide_certificate is not None:
            # The predecessor's decide travels with the proposal; process it
            # first so Hamava's round state advances before the new vote.
            self._process_decide(
                sender, proposal.decide_sequence, proposal.decide_certificate, proposal.decide_extra
            )
        if sender != self.leader or proposal.view != self.view_ts:
            return
        instance = self.instance(proposal.sequence)
        if instance.decided:
            return
        digest = proposal_value_digest(proposal)
        locked = self._locked.get(proposal.sequence)
        if locked is not None and locked[1] != digest:
            # Locked on a conflicting value: only a justify QC at or above
            # the lock's view may unlock this replica (module docstring).
            if not self._justify_unlocks(proposal, digest, locked[0]):
                return
        instance.value = proposal.value
        instance.value_digest = digest
        self.start_instance(proposal.sequence)
        self._send_vote(proposal.sequence, "prepare", digest)

    def _justify_unlocks(self, proposal: ChProposal, digest: str, locked_view: int) -> bool:
        certificate = proposal.justify_certificate
        if certificate is None or proposal.justify_view < locked_view:
            return False
        expected = _chain_digest(
            self.cluster_id, proposal.sequence, proposal.justify_view, "prepare", digest
        )
        return self.registry.certificate_valid(
            certificate, self.members(), self.quorum(), digest=expected
        )

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
        vote = ChVote(
            cluster_id=self.cluster_id,
            sequence=sequence,
            view=self.view_ts,
            phase=phase,
            value_digest=value_digest,
            commit_signature=commit_signature,
            round_marker=round_marker,
        )
        self.apl.send(self.leader, vote)

    def _on_lock(self, sender: str, message: ChLock) -> None:
        if sender != self.leader or message.view != self.view_ts:
            return
        instance = self.instance(message.sequence)
        if instance.value_digest is None or instance.value_digest != message.value_digest:
            # Never saw the proposal (or saw a conflicting one): abstain.
            return
        expected = _chain_digest(
            self.cluster_id, message.sequence, message.view, "prepare", message.value_digest
        )
        if not self.registry.certificate_valid(
            message.certificate, self.members(), self.quorum(), digest=expected
        ):
            return
        # Install the prepare QC as this replica's lock, then commit-vote.
        instance.prepared_value = instance.value
        instance.prepared_certificate = message.certificate
        self._locked[message.sequence] = (message.view, message.value_digest)
        self._prepared_view[message.sequence] = message.view
        self._send_vote(message.sequence, "commit", message.value_digest)

    def _process_decide(self, sender: str, sequence: int, certificate, extra: Any) -> None:
        """Adopt a chained or explicit decide against the locally held value."""
        instance = self._instances.get(sequence)
        if instance is None or instance.value is None:
            # A laggard that never saw the proposal cannot verify the bare
            # certificate; its watchdog's catch-up report draws a
            # value-carrying reply instead.
            return
        digest = self.instance_commit_digest(instance)
        if not self.registry.certificate_valid(
            certificate, self.members(), self.quorum(), digest=digest
        ):
            return
        self._decide(sequence, instance.value, certificate)
        if extra is not None and self.on_decide_extra is not None:
            self.on_decide_extra(sequence, sender, extra)

    def _on_decide(self, sender: str, message: ChDecide) -> None:
        if message.value is not None:
            # Value-carrying catch-up replies are self-certifying; accepted
            # regardless of the local view, like the basic engine.
            self._adopt_certified_decision(message.sequence, message.value, message.certificate)
            return
        # Explicit decides are equally self-certifying against the locally
        # held value (the certificate binds cluster, sequence, and batch),
        # so no sender/view gate: a deposed leader flushing its last grace
        # timer is still announcing a real decision.
        self._process_decide(sender, message.sequence, message.certificate, message.extra)

    # -- leader side ----------------------------------------------------- #
    def _on_vote(self, sender: str, vote: ChVote) -> None:
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
        phase_digest = _chain_digest(
            self.cluster_id, vote.sequence, vote.view, vote.phase, vote.value_digest
        )
        cert = self._vote_certs.setdefault(key, Certificate(phase_digest, kind=vote.phase))
        cert.add(self.registry.sign(sender, phase_digest))
        if vote.phase == "commit" and vote.commit_signature is not None:
            cdigest = self.instance_commit_digest(instance)
            commit_cert = self._commit_certs.setdefault(
                (vote.sequence, vote.view), Certificate(cdigest, kind="commit")
            )
            if self.registry.verify(vote.commit_signature) and vote.commit_signature.digest == cdigest:
                commit_cert.add(vote.commit_signature)
        if len(cert) < self.quorum():
            return
        self._advance_phase(vote.sequence, vote.phase, cert)

    def _advance_phase(self, sequence: int, completed_phase: str, cert: Certificate) -> None:
        instance = self.instance(sequence)
        key = (sequence, self.view_ts, completed_phase)
        if completed_phase == "prepare":
            if self._advanced.get(key):
                return
            self._advanced[key] = True
            # The leader locks on its own QC too (it is one of the 2f+1).
            instance.prepared_value = instance.value
            instance.prepared_certificate = cert
            self._locked[sequence] = (self.view_ts, instance.value_digest or "")
            self._prepared_view[sequence] = self.view_ts
            self.abeb.broadcast(
                ChLock(
                    cluster_id=self.cluster_id,
                    sequence=sequence,
                    view=self.view_ts,
                    value_digest=instance.value_digest or "",
                    certificate=cert,
                )
            )
        elif completed_phase == "commit":
            commit_cert = self._commit_certs.get((sequence, self.view_ts))
            if commit_cert is None or len(commit_cert) < self.quorum():
                return
            if self._advanced.get(key):
                return
            self._advanced[key] = True
            # The decide extra is snapshotted *before* ``_decide`` runs the
            # delivery callback — Hamava's quiet-round proof must be taken
            # ahead of the replica's own decision handling, which otherwise
            # aggregates the round through the full (non-quiet) path.
            extra = None
            if self.decide_extra_fn is not None:
                extra = self.decide_extra_fn(sequence)
                self._pending_extras[sequence] = extra
            self._decide(sequence, instance.value, commit_cert)
            if sequence in self._announced:
                return
            if extra is not None:
                # A quiet-round proof is riding this decide, and Hamava's
                # round loop cannot finish stage 1 (and thus reach the next
                # proposal) until followers answer it — waiting for the
                # chain here would gate the round on its own grace timer.
                # Announce immediately; the piggyback is reserved for
                # decides nothing time-critical rides on.
                self._announce_decide(sequence)
            else:
                self._decide_pool.arm(sequence, self.config.chained_decide_grace)

    def _on_decide_grace(self, sequence: int) -> None:
        if sequence not in self._announced:
            self._announce_decide(sequence)

    def _announce_decide(self, sequence: int) -> None:
        decision = self.decisions.get(sequence)
        if decision is None:
            return
        self._announced.add(sequence)
        extra = self._pending_extras.pop(sequence, None)
        self.abeb.broadcast(
            ChDecide(
                cluster_id=self.cluster_id,
                sequence=sequence,
                view=self.view_ts,
                value_digest=payload_digest(decision.value),
                certificate=decision.certificate,
                extra=extra,
            )
        )

    # ------------------------------------------------------------------ #
    # View change
    # ------------------------------------------------------------------ #
    def on_view_change(self) -> None:
        """Report each pending instance's lock to the new leader."""
        for sequence in list(self.pending_sequences()):
            instance = self.instance(sequence)
            self.start_instance(sequence)
            report = ChNewView(
                cluster_id=self.cluster_id,
                sequence=sequence,
                view=self.view_ts,
                prepared_value=instance.prepared_value,
                prepared_certificate=instance.prepared_certificate,
                prepared_view=self._prepared_view.get(sequence, -1),
            )
            self.apl.send(self.leader, report)

    def _on_new_view(self, sender: str, report: ChNewView) -> None:
        decision = self.decisions.get(report.sequence)
        if decision is not None:
            # The reporter is behind a decision this replica already holds;
            # answer with a value-carrying decide it can verify and adopt.
            if sender != self.owner:
                self.apl.send(
                    sender,
                    ChDecide(
                        cluster_id=self.cluster_id,
                        sequence=report.sequence,
                        view=self.view_ts,
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
        value = self._adopt_highest_lock(report.sequence, reports)
        if value is None:
            value = instance.value
        if value is None and self.fetch_value is not None:
            value = self.fetch_value(report.sequence)
        if value is None:
            return
        del self._new_views[key]
        self.propose(report.sequence, value)

    def _adopt_highest_lock(self, sequence: int, reports: Dict[str, ChNewView]) -> Any:
        """The value of the highest-view *valid* prepared certificate, if any.

        Unlike the basic engine's three-phase recovery (where adopting *any*
        prepared value is safe), two-phase safety hinges on re-anchoring on
        the **highest** lock: a decided value is locked at the decision's
        view by a quorum, and no conflicting QC exists at that view or above.
        Certificates are verified before adoption so a Byzantine reporter
        cannot steer recovery with a forged lock.
        """
        candidates = [
            item
            for item in reports.values()
            if item.prepared_value is not None and item.prepared_certificate is not None
        ]
        candidates.sort(key=lambda item: item.prepared_view, reverse=True)
        for item in candidates:
            digest = payload_digest(item.prepared_value)
            expected = _chain_digest(
                self.cluster_id, sequence, item.prepared_view, "prepare", digest
            )
            if self.registry.certificate_valid(
                item.prepared_certificate, self.members(), self.quorum(), digest=expected
            ):
                self._justify[sequence] = (item.prepared_view, item.prepared_certificate)
                return item.prepared_value
        return None

    def _request_catchup(self, sequence: int) -> None:
        """Re-report a stuck instance to the whole cluster (see base class)."""
        instance = self.instance(sequence)
        self.abeb.broadcast(
            ChNewView(
                cluster_id=self.cluster_id,
                sequence=sequence,
                view=self.view_ts,
                prepared_value=instance.prepared_value,
                prepared_certificate=instance.prepared_certificate,
                prepared_view=self._prepared_view.get(sequence, -1),
            ),
        )


__all__ = [
    "CHAINED_PHASES",
    "ChDecide",
    "ChLock",
    "ChNewView",
    "ChProposal",
    "ChVote",
    "ChainedHotStuffEngine",
]

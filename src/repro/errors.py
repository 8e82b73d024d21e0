"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch library failures without masking programming errors
(``TypeError`` etc. are still raised directly for misuse of the API).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """A scheme or experiment parameter violates its validity constraints.

    Raised, e.g., when :class:`repro.core.params.SchemeParameters` receives a
    ``delta`` outside the Lemma 9 interval ``(2/(d+2), 1 - 1/d)``.
    """


class ConstructionError(ReproError, RuntimeError):
    """A data-structure construction failed.

    Raised when rejection sampling of hash functions exceeds its trial
    budget (property P(S) of Section 2.2, the FKS condition, or cuckoo
    insertion) — with a sound configuration this indicates either an
    adversarial data set or a mis-sized trial budget.
    """


class TableError(ReproError, RuntimeError):
    """An invalid access to the cell-probe table (row/cell out of range)."""


class QueryError(ReproError, RuntimeError):
    """A query could not be answered (corrupt table or key outside universe)."""


class VerificationError(ReproError, AssertionError):
    """An executed query disagreed with ground-truth membership.

    Raised by the empirical measurement paths when the honest query
    algorithm returns a wrong answer — which would mean the executable
    algorithm has diverged from the construction it runs against.
    Carries the offending ``key``, the ``answer`` the query gave, and
    the ``expected`` ground truth.  Derives from :class:`AssertionError`
    for compatibility with callers that treated the old bare assertion
    as the failure signal.
    """

    def __init__(self, key: int, answer: bool, expected: bool):
        self.key = int(key)
        self.answer = bool(answer)
        self.expected = bool(expected)
        super().__init__(
            f"query({self.key}) = {self.answer}, ground truth {self.expected}"
        )


class DistributionError(ReproError, ValueError):
    """A query distribution is invalid (negative mass, wrong support, ...)."""


class GameError(ReproError, RuntimeError):
    """The lower-bound communication game was driven into an illegal state.

    Raised, e.g., when a probe specification violates the row-sum constraint
    (1) or the contention constraint (2) of Lemma 14.
    """


class FaultError(ReproError, RuntimeError):
    """Base class for injected-fault failures (see :mod:`repro.faults`)."""


class ReplicaUnavailableError(FaultError):
    """A query was routed to a crashed (unavailable) replica.

    Raised by :class:`~repro.dictionaries.replicated.ReplicatedDictionary`
    in the default ``"random"`` routing mode, which has no failover: the
    fragile baseline that E18 measures against.  Carries the replica index.
    """

    def __init__(self, replica: int):
        self.replica = int(replica)
        super().__init__(f"replica {self.replica} is crashed/unavailable")


class CorruptQueryError(FaultError):
    """A query execution was detectably derailed by injected faults.

    Raised by the ``"random"`` routing mode (which has no failover) when
    corrupted words drive the honest query algorithm into an illegal
    state — e.g. a hash coefficient outside its field or a probe address
    outside the table.  The original error is chained as ``__cause__``.
    """


class FaultExhaustedError(FaultError):
    """A fault-tolerant query path ran out of retries or healthy replicas.

    Raised by the ``"failover"`` mode when ``max_retries`` consecutive
    replica attempts all failed, and by the ``"majority"`` mode when no
    replica produced a vote.  Carries the number of ``attempts`` made and
    the total exponential-backoff cost in probe-equivalents.
    """

    def __init__(self, attempts: int, backoff_probes: int = 0):
        self.attempts = int(attempts)
        self.backoff_probes = int(backoff_probes)
        super().__init__(
            f"no healthy replica after {self.attempts} attempts "
            f"({self.backoff_probes} backoff probe-equivalents spent)"
        )


class ServeError(ReproError, RuntimeError):
    """Base class for failures of the :mod:`repro.serve` subsystem."""


class OverloadError(ServeError):
    """A request was shed by admission control (service at capacity).

    Raised by :class:`~repro.serve.admission.AdmissionController` when
    the bounded in-flight queue is full.  Carries the observed queue
    ``depth`` and the configured ``capacity`` so clients can implement
    informed backoff.
    """

    def __init__(self, depth: int, capacity: int):
        self.depth = int(depth)
        self.capacity = int(capacity)
        super().__init__(
            f"service overloaded: {self.depth} requests in flight "
            f"(capacity {self.capacity})"
        )


class FabricError(ServeError):
    """The multi-process serving fabric (:mod:`repro.parallel`) failed.

    Raised when a worker process cannot be booted, dies with no healthy
    survivor to fail over to, or a dispatch round makes no progress
    within its deadline.  Worker *crashes with survivors* are not
    errors — the dispatcher fails the affected groups over and keeps
    serving (counted in its stats) — so this type only surfaces when
    the fabric as a whole cannot make progress.
    """


class SegmentFormatError(FabricError):
    """A shared-memory segment failed layout/version verification.

    Raised when a worker (or the owner, re-attaching) finds a segment
    whose magic word, layout version, kind, geometry, or checksum does
    not match what the fabric protocol expects — serving from a
    misinterpreted segment would silently corrupt answers, so the
    attach refuses instead.
    """


class RingFullError(OverloadError):
    """An SPSC ring buffer has no room for the frame being enqueued.

    The ring-level backpressure signal of :mod:`repro.parallel.ring`:
    producers get a typed error instead of blocking (no deadlock by
    construction), and the dispatcher reacts by draining responses
    before retrying.  Subclasses :class:`OverloadError` — a full ring
    *is* an overload — carrying the ring's used/capacity word counts.
    """


class UpdateBacklogError(ServeError):
    """A write was shed because the update backlog is full.

    The write-path analogue of :class:`OverloadError`: the dynamic
    serving stack (:mod:`repro.serve.dynamic_service`) bounds the
    number of updates accepted but not yet applied to the replicas,
    and sheds further writes beyond it — an unbounded write backlog
    would let read-your-writes latency diverge exactly like an
    unbounded read queue.  Carries the observed ``pending`` update
    count and the configured ``capacity``.
    """

    def __init__(self, pending: int, capacity: int):
        self.pending = int(pending)
        self.capacity = int(capacity)
        super().__init__(
            f"update backlog full: {self.pending} updates pending "
            f"(capacity {self.capacity})"
        )


class DegradedModeError(ServeError):
    """A low-priority request was shed because the service is degraded.

    Distinct from :class:`OverloadError`: the service is *not* at full
    capacity, but healthy capacity has dropped (replicas quarantined or
    rebuilding) and admission control sheds low-priority traffic first
    to protect the requests that matter.  Carries the observed queue
    ``depth``, the reduced ``effective_capacity``, and the healthy
    capacity ``fraction`` in (0, 1].
    """

    def __init__(self, depth: int, effective_capacity: int, fraction: float):
        self.depth = int(depth)
        self.effective_capacity = int(effective_capacity)
        self.fraction = float(fraction)
        super().__init__(
            f"service degraded to {self.fraction:.0%} healthy capacity: "
            f"low-priority request shed at depth {self.depth} "
            f"(effective capacity {self.effective_capacity})"
        )


class HealError(ServeError):
    """The self-healing layer was misused or cannot make progress.

    Raised, e.g., when healing is enabled on a service whose dictionaries
    carry no fault-injection layer to crash/revive replicas through, or
    when a scrub/rebuild is asked to vote with fewer than the strict
    majority of trusted replicas it needs.
    """


class AutotuneError(ServeError):
    """The :mod:`repro.autotune` control plane was misused or failed.

    Base class for control-plane failures.  Raised directly when a
    controller is attached to a service it cannot drive (wrong service
    type for a capability), or when policy parameters are inconsistent
    (low threshold above high threshold, replica bounds inverted).
    """


class ReconfigError(AutotuneError):
    """A reconfiguration action could not be applied to the service.

    Raised by the executor when an action's preconditions fail in a way
    the controller should have ruled out — e.g. splitting a shard whose
    replicas are not all healthy, joining below ``min_replicas``, or
    switching a shard to the scheme it already runs.  Carries enough
    context in the message to replay the offending decision.
    """


class ActionUnsupportedError(AutotuneError):
    """An action kind is not supported on this service's deployment.

    Structural actions (split/join/scheme-switch) swap whole tables and
    routers, which is impossible when replica state lives in another
    process — the multicore fabric's workers hold shared-memory
    segments, and the dynamic service's replicas advance by lockstep
    log replay.  Those deployments accept admission tuning only; the
    executor raises this for anything structural instead of corrupting
    a live table.
    """


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint or cache location is unusable (not a directory, not
    writable, or otherwise broken in a way that cannot degrade to a
    recompute).

    Individual corrupt/truncated checkpoint *files* still degrade to a
    warning and a recompute; this error is for the directory itself so
    the CLI can exit with a one-line message instead of a traceback.
    """


class CheckpointCorruptError(CheckpointError):
    """One checkpoint *file* failed integrity verification.

    Raised (and, on the recovery path, caught and recorded) when a
    checkpoint frame fails its magic, CRC32, or SHA-256 check, or when
    a verified payload is structurally unusable.  The recovery fallback
    chain treats this as "quarantine the file and try the next
    generation", never as a crash; it only propagates when a caller
    inspects a single named file directly.  Carries the offending
    ``path`` and a one-phrase ``reason``.
    """

    def __init__(self, path, reason: str):
        self.path = str(path)
        self.reason = str(reason)
        super().__init__(f"checkpoint {self.path} is corrupt: {self.reason}")


class TelemetryError(ReproError, RuntimeError):
    """The :mod:`repro.telemetry` layer was misused or misconfigured.

    Raised for invalid monitor predictions (a Φ matrix that is not a
    probability matrix), malformed metric names, mismatched histogram
    geometries on merge, unknown trace export formats, and snapshot
    payloads whose version is newer than this library understands.
    Never raised on the observation path itself: monitors return typed
    alarm values instead of raising, so telemetry cannot alter the
    control flow of the system it watches.
    """


class ExperimentFailureError(ReproError, RuntimeError):
    """One or more experiments failed (crashed, errored, timed out, or
    failed their own acceptance check, reason ``"gate"``).

    Raised by the experiment runner once retries are exhausted.  Carries
    ``failures`` (experiment id -> one-line reason) and ``results`` (the
    experiments that *did* complete, in request order) so callers running
    with keep-going semantics can still report partial output.
    """

    def __init__(self, failures: dict, results: list = ()):  # type: ignore[assignment]
        self.failures = dict(failures)
        self.results = list(results)
        detail = "; ".join(f"{k}: {v}" for k, v in self.failures.items())
        super().__init__(
            f"{len(self.failures)} experiment(s) failed — {detail}"
        )

"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A star schema, dimension, or hierarchy definition is invalid."""


class UnknownMemberError(SchemaError, KeyError):
    """A dimension member (value or ordinal) does not exist at a level."""


class ChunkingError(ReproError):
    """Chunk ranges or chunk numbering were used inconsistently."""


class StorageError(ReproError):
    """Base class for failures in the simulated storage engine."""


class PageError(StorageError):
    """A page id is out of range or a page payload is malformed."""


class BufferPoolError(StorageError):
    """The buffer pool cannot satisfy a pin request (all frames pinned)."""


class FileFormatError(StorageError):
    """A stored file (heap/fact/chunked) is structurally inconsistent."""


class ChunkLogError(StorageError):
    """The persistent chunk log was configured or used incorrectly."""


class ChunkLogCorruption(ChunkLogError):
    """A chunk-log record failed its integrity check.

    Raised when a stored record's CRC-32 does not match its payload
    (a torn or bit-rotted write).  The tiered cache responds by
    quarantining the entry — the record is dropped from the live
    manifest and the lookup degrades to a cache miss, never to a wrong
    answer.

    Attributes:
        token: Opaque record token whose payload failed verification.
    """

    def __init__(self, message: str, token: str = "") -> None:
        super().__init__(message)
        self.token = token


class IndexError_(StorageError):
    """A B-tree or bitmap index was queried or built incorrectly.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`IndexError`.
    """


class QueryError(ReproError):
    """A star query is malformed or incompatible with the schema."""


class SQLParseError(QueryError):
    """The mini-SQL parser rejected a statement."""


class CacheError(ReproError):
    """The chunk or query cache was configured or used incorrectly."""


class PipelineError(ReproError):
    """The staged query pipeline was miswired or left work unresolved."""


class BackendError(ReproError):
    """The backend engine could not evaluate a request."""


class ExperimentError(ReproError):
    """An experiment configuration is invalid or a run failed."""


class StackError(ReproError):
    """A :mod:`repro.api` stack configuration is invalid.

    Raised by the public facade for unknown schemes, missing inputs
    (no records and no pre-built backend) and scheme/parameter
    mismatches — before any layer is constructed.
    """


class ServeError(ReproError):
    """The serving layer was misconfigured or a run failed.

    Raised for invalid :mod:`repro.serve` configurations (bad worker or
    shard counts, duplicate stream names) and for runs that exceed their
    deadline — the soak harness treats a stuck worker as an error, not a
    hang.
    """


class FaultError(ReproError):
    """A fault-injection plan or injector was configured incorrectly."""


class InjectedFault(ReproError):
    """Base class for deliberately injected faults (:mod:`repro.faults`).

    Raised only by fault-injection hooks, never by production code paths
    on their own.  Carries the recovery-relevant metadata the pipeline's
    retry/degrade policy inspects:

    Attributes:
        transient: Whether a retry may succeed (transient faults are
            retried with deterministic backoff; permanent ones are not).
        site: The decision site that rolled the fault (e.g.
            ``"disk.read"``), for counters and reports.
        source_level: Filled in by the backend when the fault surfaced
            during chunk computation: ``"aggregate"`` when a
            materialized aggregate table was being read (the degrade
            path recomputes from base chunks), ``"base"`` otherwise.
        cost_report: Physical work charged to the failed attempt(s),
            attached by the backend / resolver so even failed queries
            conserve global I/O accounting.  Duck-typed (a
            :class:`repro.backend.plans.CostReport`) to keep this module
            a leaf.
    """

    def __init__(
        self,
        message: str,
        transient: bool = True,
        site: str = "",
    ) -> None:
        super().__init__(message)
        self.transient = transient
        self.site = site
        self.source_level: str | None = None
        self.cost_report: object | None = None


class DiskFault(InjectedFault, StorageError):
    """An injected page-read failure of the simulated disk.

    Attributes:
        page_id: The page whose read faulted.
    """

    def __init__(
        self, message: str, page_id: int, transient: bool, site: str = ""
    ) -> None:
        super().__init__(message, transient=transient, site=site)
        self.page_id = page_id


class BackendFault(InjectedFault, BackendError):
    """An injected query-level failure of the backend engine.

    Attributes:
        operation: The engine entry point that faulted
            (``"compute_chunks"`` or ``"answer"``).
    """

    def __init__(
        self, message: str, operation: str, transient: bool = True,
        site: str = "",
    ) -> None:
        super().__init__(message, transient=transient, site=site)
        self.operation = operation


class InvariantViolation(ReproError):
    """A runtime invariant check failed (see :mod:`repro.invariants`).

    Raised when internal state contradicts a property the design
    guarantees (chunk-range closure, partition coverage, cache byte
    conservation, trace conservation).  Always indicates a library bug,
    never a caller mistake.
    """

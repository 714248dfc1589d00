"""Result stores for sweep caches: one interface, two on-disk layouts.

:class:`ResultStore` is the interface every caller (sweep coordinator,
serve daemon, the execution core) talks to; :func:`open_store` picks the
layout by name -- :class:`FileResultStore` (one ``{cache_key}.json`` per
point, see :mod:`repro.store.files`) or :class:`PackedResultStore` (one
append-only pack, see :mod:`repro.store.packed`).
"""

from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from .files import FileResultStore
from .packed import (
    DATA_FILENAME,
    INDEX_FILENAME,
    LOCK_FILENAME,
    PackedResultStore,
    PackedStoreError,
    PackedStoreLockedError,
    migrate_files_to_packed,
)

__all__ = [
    "CACHE_BACKENDS",
    "DEFAULT_CACHE_BACKEND",
    "DATA_FILENAME",
    "INDEX_FILENAME",
    "LOCK_FILENAME",
    "FileResultStore",
    "PackedResultStore",
    "PackedStoreError",
    "PackedStoreLockedError",
    "ResultStore",
    "migrate_files_to_packed",
    "open_store",
]

#: Selectable cache backends: ``"files"`` is the legacy layout (one atomic
#: ``{cache_key}.json`` per point), ``"packed"`` is the append-only
#: single-artifact store whose warm path is one index probe plus one
#: batched sequential read for the whole grid.  Both are keyed by the same
#: content-hash cache keys, so a directory can be migrated in place
#: (:func:`migrate_files_to_packed`) and the backends produce
#: byte-identical :class:`~repro.api.results.SweepResult` s.
CACHE_BACKENDS = ("files", "packed")

#: Cache backend used when none is requested (the legacy per-file layout).
DEFAULT_CACHE_BACKEND = "files"


class ResultStore(Protocol):
    """Batched, cache-key-addressed storage of experiment results."""

    def probe(self, keys: Iterable[str]) -> FrozenSet[str]:
        """The subset of ``keys`` the store holds."""

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Every present, readable result of ``keys`` (damaged entries are
        misses, reported with a :class:`RuntimeWarning`)."""

    def append_many(
        self, entries: Sequence[Tuple[str, Any]]
    ) -> Dict[str, Tuple[int, int]]:
        """Persist ``(cache_key, result)`` entries in one batch.

        Raises:
            PackedStoreLockedError: another live process is writing.
        """

    def locate(self, keys: Iterable[str]) -> Dict[str, Tuple[int, int]]:
        """``{key: (offset, length)}`` of records slim journal lines can
        reference (``{}`` for layouts without locations)."""


def open_store(
    cache_dir: Optional[Union[str, Path]],
    backend: str = DEFAULT_CACHE_BACKEND,
) -> Optional[ResultStore]:
    """The result store of ``cache_dir`` in the named layout.

    Args:
        cache_dir: the store directory; ``None`` means no store.
        backend: one of :data:`CACHE_BACKENDS` (validated even without a
            directory, so a bad name fails before any work starts).

    Raises:
        ValueError: unknown backend name.
    """
    if backend not in CACHE_BACKENDS:
        raise ValueError(
            f"unknown cache backend {backend!r}; expected one of "
            f"{CACHE_BACKENDS}"
        )
    if cache_dir is None:
        return None
    if backend == "packed":
        return PackedResultStore(cache_dir)
    return FileResultStore(cache_dir)

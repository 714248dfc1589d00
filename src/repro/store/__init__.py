"""The sweep result store: one interface, one on-disk layout.

:class:`ResultStore` is the interface every caller (sweep coordinator,
serve daemon, the execution core) talks to; :func:`open_store` opens the
self-indexing append-only pack of a cache directory
(:class:`PackedResultStore`, see :mod:`repro.store.packed`).  A legacy
per-file cache directory converts in place with
:func:`migrate_files_to_packed`.
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

from .packed import (
    DATA_FILENAME,
    LOCK_FILENAME,
    PackedResultStore,
    PackedStoreError,
    PackedStoreLockedError,
    migrate_files_to_packed,
)

__all__ = [
    "DATA_FILENAME",
    "LOCK_FILENAME",
    "PackedResultStore",
    "PackedStoreError",
    "PackedStoreLockedError",
    "ResultStore",
    "migrate_files_to_packed",
    "open_store",
]


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
        reference."""


def open_store(cache_dir: Optional[Union[str, Path]]) -> Optional[ResultStore]:
    """The result store of ``cache_dir`` (``None`` means no store)."""
    if cache_dir is None:
        return None
    return PackedResultStore(cache_dir)

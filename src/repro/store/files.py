"""Per-file result store: one atomically written ``{cache_key}.json`` each.

The original sweep cache layout, kept behind the same
:class:`~repro.store.ResultStore` interface as the packed store.  This
class is the only code that knows the layout: probes list the directory
once, reads open entries directly (an unreadable entry is a miss with a
:class:`RuntimeWarning`), writes go through
:meth:`~repro.api.results.ExperimentResult.save` (unique temp file +
``os.replace``), and the directory is created lazily on the first write.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, Sequence, Tuple, Union

__all__ = ["FileResultStore"]

#: File suffix of one per-point entry.
_SUFFIX = ".json"


class FileResultStore:
    """A directory of ``{cache_key}.json`` experiment results.

    Args:
        directory: the cache directory (created on the first write).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{_SUFFIX}"

    def keys(self) -> FrozenSet[str]:
        """Every key with an entry on disk (one directory listing)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return frozenset()
        return frozenset(
            name[: -len(_SUFFIX)] for name in names if name.endswith(_SUFFIX)
        )

    def probe(self, keys: Iterable[str]) -> FrozenSet[str]:
        """The subset of ``keys`` with an entry (one directory listing,
        not one ``stat`` per key)."""
        present = self.keys()
        return frozenset(key for key in keys if key in present)

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Every present, readable entry of ``keys``.

        Entries are opened directly (no ``exists()`` pre-check).  A
        truncated or otherwise unreadable entry is reported with a
        :class:`RuntimeWarning` and omitted, so the caller recomputes the
        point and overwrites the entry.
        """
        from ..api.results import ExperimentResult

        results: Dict[str, Any] = {}
        for key in dict.fromkeys(keys):
            path = self._path(key)
            try:
                results[key] = ExperimentResult.load(path)
            except FileNotFoundError:
                continue
            except (OSError, ValueError, KeyError, TypeError) as error:
                warnings.warn(
                    f"skipping unreadable sweep-cache entry {path} "
                    f"({type(error).__name__}: {error}); treating it as a "
                    "cache miss",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return results

    def append_many(
        self, entries: Sequence[Tuple[str, Any]]
    ) -> Dict[str, Tuple[int, int]]:
        """Write every ``(cache_key, result)`` entry atomically.

        Existing entries are overwritten (a recomputed point replaces an
        unreadable one).  Returns ``{}``: per-file entries have no store
        location, so journals keep full records for them.
        """
        for key, result in entries:
            path = self._path(key)
            try:
                result.save(path)
            except FileNotFoundError:
                self.directory.mkdir(parents=True, exist_ok=True)
                result.save(path)
        return {}

    def locate(self, keys: Iterable[str]) -> Dict[str, Tuple[int, int]]:
        """Always ``{}`` (see :meth:`append_many`)."""
        return {}

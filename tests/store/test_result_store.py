"""The :class:`repro.store.ResultStore` contract.

Whatever :func:`repro.store.open_store` returns must round-trip results
(probe -> append_many -> probe/get_many), answer ``locate`` for slim
journal refs, and read a damaged entry as a miss with a
:class:`RuntimeWarning` -- never an exception.
"""

import pytest

from repro.api import Experiment
from repro.store import PackedResultStore, open_store


@pytest.fixture(scope="module")
def entries():
    session = Experiment()
    return {
        "k-table4": session.run("table4"),
        "k-table1": session.run("table1"),
    }


def _corrupt(store, key):
    """Flip one payload byte of ``key``'s record; its checksum mismatches."""
    offset, length = store.locate([key])[key]
    data = bytearray(store.data_path.read_bytes())
    data[offset + length - 1] ^= 0xFF
    store.data_path.write_bytes(bytes(data))


class TestResultStoreContract:
    def test_round_trip(self, tmp_path, entries):
        store = open_store(tmp_path / "cache")
        keys = list(entries)
        assert store.probe(keys) == frozenset()
        assert store.get_many(keys) == {}
        store.append_many(list(entries.items()))
        assert store.probe(keys + ["absent"]) == frozenset(keys)
        fetched = store.get_many(keys + ["absent"])
        assert {k: r.to_json() for k, r in fetched.items()} == {
            k: r.to_json() for k, r in entries.items()
        }
        # A second instance reads what the first one wrote.
        reopened = open_store(tmp_path / "cache")
        assert reopened.get_many(keys) == fetched
        assert set(store.locate(keys)) == set(keys)

    def test_corrupt_entry_is_a_warned_miss(self, tmp_path, entries):
        store = open_store(tmp_path)
        store.append_many(list(entries.items()))
        victim, survivor = list(entries)
        _corrupt(store, victim)
        reader = open_store(tmp_path)
        with pytest.warns(RuntimeWarning):
            fetched = reader.get_many([victim, survivor])
        assert list(fetched) == [survivor]


class TestOpenStore:
    def test_opens_the_pack_of_a_directory(self, tmp_path):
        assert isinstance(open_store(tmp_path), PackedResultStore)
        assert open_store(None) is None

    def test_takes_no_backend_argument(self, tmp_path):
        with pytest.raises(TypeError):
            open_store(tmp_path, "files")

    def test_rewrite_replaces_a_damaged_entry(self, tmp_path, entries):
        store = open_store(tmp_path / "fresh")  # directory made lazily
        key, result = next(iter(entries.items()))
        store.append_many([(key, result)])
        _corrupt(store, key)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert store.get_many([key]) == {}
        store.append_many([(key, result)])  # the recomputed point
        assert store.get_many([key])[key].to_json() == result.to_json()

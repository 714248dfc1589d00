"""The two-thread :func:`profile_model` against the plain serial loop.

``profile_model`` hands layers to the calling thread and one helper thread
from a single in-order queue.  Pinned here: the profile is byte-identical
(by ``pickle`` sha256) to ``[profile_layer(...) for layer in layers]`` for
every workload, seed, FTA configuration and IPU group size; exactly one
helper starts for a multi-layer workload and none for a single layer; and
a failure raises what the serial loop would raise (the lowest failing
layer's exception) and leaves no thread behind.
"""

import copy
import hashlib
import pickle
import threading
import time

import pytest

from repro.core.fta import FTAConfig
from repro.workloads import profiles
from repro.workloads.models import get_workload, list_workloads
from repro.workloads.profiles import (
    ModelSparsityProfile,
    profile_layer,
    profile_model,
)

WORKLOADS = tuple(list_workloads(None))
SEEDS = (0, 1)
GROUPS = (8, 16)
CONFIGS = (None, FTAConfig(table_mode="exact"), FTAConfig(max_threshold=3))


def _digest(profile):
    return hashlib.sha256(pickle.dumps(profile)).hexdigest()


def _serial(workload, seed, fta_config, input_group):
    return ModelSparsityProfile(
        workload=workload,
        layers=tuple(
            profile_layer(
                layer,
                workload.redundancy,
                workload.activation_density,
                seed=seed,
                fta_config=fta_config,
                input_group=input_group,
            )
            for layer in workload.layers
        ),
    )


class _SpyExecutor(profiles.ThreadPoolExecutor):
    """Records every executor ``profile_model`` creates."""

    created = []

    def __init__(self, max_workers=None, **kwargs):
        type(self).created.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


@pytest.fixture
def spy(monkeypatch):
    _SpyExecutor.created = []
    monkeypatch.setattr(profiles, "ThreadPoolExecutor", _SpyExecutor)
    return _SpyExecutor.created


@pytest.mark.parametrize("input_group", GROUPS)
@pytest.mark.parametrize("fta_config", CONFIGS, ids=["default", "exact", "max3"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_threaded_profile_is_byte_identical_to_the_serial_loop(
    spy, name, seed, fta_config, input_group
):
    workload = get_workload(name)
    threaded = profile_model(
        workload, seed=seed, fta_config=fta_config, input_group=input_group
    )
    assert spy == [1]  # one helper thread, created by this call
    assert _digest(threaded) == _digest(
        _serial(workload, seed, fta_config, input_group)
    )


def test_both_threads_profile_layers(monkeypatch):
    real = profiles.profile_layer
    threads = set()

    def slow(*args, **kwargs):
        threads.add(threading.get_ident())
        time.sleep(0.005)  # long enough for the helper to take a layer
        return real(*args, **kwargs)

    monkeypatch.setattr(profiles, "profile_layer", slow)
    profile_model(get_workload("vgg19"))
    assert len(threads) == 2


def test_a_single_layer_starts_no_helper(spy):
    workload = get_workload("alexnet")
    single = copy.copy(workload)
    object.__setattr__(single, "layers", workload.layers[:1])
    object.__setattr__(single, "graph", None)
    profile_model(single)
    assert spy == []


def _invalid(name):
    workload = copy.copy(get_workload(name))
    object.__setattr__(workload, "redundancy", 1.5)  # bypasses validation
    return workload


def test_invalid_redundancy_raises_the_serial_error_and_leaves_no_thread():
    workload = _invalid("mobilenetv2")
    with pytest.raises(ValueError) as serial:
        _serial(workload, 0, None, 16)
    before = set(threading.enumerate())
    with pytest.raises(ValueError) as threaded:
        profile_model(workload)
    assert type(threaded.value) is type(serial.value)
    assert str(threaded.value) == str(serial.value)
    assert set(threading.enumerate()) == before


def test_the_lowest_failing_layer_wins(monkeypatch):
    # Layer 3 fails slowly, so the helper reaches layer 7 and fails first;
    # the serial loop would raise layer 3's error, and so must this.
    workload = get_workload("vgg19")
    names = [layer.name for layer in workload.layers]
    real = profiles.profile_layer
    attempted = []

    def fragile(layer, *args, **kwargs):
        attempted.append(layer.name)
        if layer.name == names[3]:
            time.sleep(0.2)
            raise ValueError(f"bad {layer.name}")
        if layer.name == names[7]:
            raise ValueError(f"bad {layer.name}")
        return real(layer, *args, **kwargs)

    monkeypatch.setattr(profiles, "profile_layer", fragile)
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match=f"bad {names[3]}$"):
        profile_model(workload)
    assert set(threading.enumerate()) == before
    assert names[7] in attempted


def test_no_layer_is_handed_out_after_a_failure(monkeypatch):
    # Layer 1 fails at once while every other layer takes a while: the
    # thread still busy finishes its layer and takes no further one.
    workload = get_workload("vgg19")
    names = [layer.name for layer in workload.layers]
    real = profiles.profile_layer
    attempted = []

    def fragile(layer, *args, **kwargs):
        attempted.append(layer.name)
        if layer.name == names[1]:
            raise ValueError(f"bad {layer.name}")
        time.sleep(0.02)
        return real(layer, *args, **kwargs)

    monkeypatch.setattr(profiles, "profile_layer", fragile)
    with pytest.raises(ValueError, match=f"bad {names[1]}$"):
        profile_model(workload)
    assert len(attempted) <= 4 < len(names)

"""Traffic accounting counts array leaves by ``nbytes``: the mesh
conversions' ``(meta, block)`` lists and the particle exchange's dicts
are never pickled just to be measured, and what is pickled is only the
small remainder of non-array leaves."""

from __future__ import annotations

import pickle
import threading

import numpy as np

from repro.mpi import backend
from repro.mpi.backend import payload_bytes


def _pickled(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def test_array_counts_its_nbytes():
    a = np.zeros((4, 5, 6))
    assert payload_bytes(a) == a.nbytes
    assert payload_bytes(a[:, ::2]) == a[:, ::2].nbytes


def test_nested_payload_counts_exactly(monkeypatch):
    block = np.ones((3, 4, 5))
    y_idx = np.arange(4)
    z_idx = np.arange(5, dtype=np.int32)
    payload = [
        ((2, y_idx, z_idx), block),
        {"pos": np.zeros((7, 3)), "ids": np.arange(7), "tag": "ghost"},
        (),
    ]
    arrays = block.nbytes + y_idx.nbytes + z_idx.nbytes + 7 * 3 * 8 + 7 * 8
    # the non-array leaves, in traversal order: meta's x offset, then the
    # dict's keys and its one non-array value
    expected = arrays + _pickled([2, "pos", "ids", "tag", "ghost"])

    real_dumps = pickle.dumps

    def dumps_refusing_arrays(obj, *args, **kwargs):
        def walk(o):
            assert not isinstance(o, np.ndarray), "an array was pickled"
            if isinstance(o, (list, tuple)):
                for item in o:
                    walk(item)
            elif isinstance(o, dict):
                for k, v in o.items():
                    walk(k)
                    walk(v)

        walk(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(backend.pickle, "dumps", dumps_refusing_arrays)
    assert payload_bytes(payload) == expected
    assert payload_bytes([block, block]) == 2 * block.nbytes


def test_arrays_only_pickle_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pickled a payload made of arrays only")

    monkeypatch.setattr(backend.pickle, "dumps", refuse)
    assert payload_bytes([np.zeros(3), (np.zeros((2, 2)), [np.ones(1)])]) == 64
    assert payload_bytes([]) == payload_bytes({}) == 0


def test_unpicklable_leaf_counts_a_token():
    assert payload_bytes([np.zeros(4), threading.Lock()]) == 32 + 64

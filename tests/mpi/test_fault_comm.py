"""FaultComm: the plan follows every communicator a rank derives.

A launcher given a plan wraps the world communicator; ``split`` and
``shrink`` must hand back wrapped communicators, so a rule keyed on
world ranks still fires inside a sub-communicator and after an elastic
shrink, on both backends.  A run without a plan gets the backend's own
communicator, unwrapped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi.backend import create_backend
from repro.mpi.faults import CommTimeout, FaultPlan, PeerFailure
from repro.mpi.recovery import shrink_after_failure

pytestmark = [pytest.mark.faults, pytest.mark.timeout(120)]

BACKENDS = ["thread", "multiprocess"]

#: a keyed corrupt rule damages only dicts carrying "x": the collectives'
#: own messages between the same ranks pass through it unharmed
_CORRUPT_1_TO_0 = dict(src=1, dst=0, count=10**6, key="x")


def _damaged(got) -> bool:
    return not np.array_equal(got["x"], np.ones(4))


def _exchange(comm, sender: int, receiver: int):
    """World rank ``sender`` sends ``{"x": ones}`` to world rank
    ``receiver`` over ``comm``; the receiver reports whether it arrived
    damaged."""
    ranks = {w: r for r, w in enumerate(comm.allgather(comm.world_rank))}
    if comm.world_rank == sender:
        comm.send({"x": np.ones(4)}, ranks[receiver], tag=5)
    elif comm.world_rank == receiver:
        return _damaged(comm.recv(ranks[sender], tag=5, timeout=20.0))
    return None


def _in_split(comm):
    # keys reverse the order: world rank 1 is rank 0 of the sub-comm
    sub = comm.split(0, key=-comm.rank)
    return type(sub).__name__, sub.rank, _exchange(sub, 1, 0), _exchange(sub, 0, 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_message_rule_fires_inside_a_split(backend):
    plan = FaultPlan().corrupt_messages(**_CORRUPT_1_TO_0)
    runtime = create_backend(backend, 2, fault_plan=plan, recv_timeout=20.0)
    (name0, sub0, hit, _), (name1, sub1, _, clean) = runtime.run(_in_split)
    assert name0 == name1 == "FaultComm"
    assert (sub0, sub1) == (1, 0)
    assert hit is True      # world 1 -> world 0, as the rule says
    assert clean is False   # the other direction is not matched


def _after_shrink(comm):
    comm.fault_point(0)  # the plan kills world rank 2 here
    try:
        comm.barrier()
    except (PeerFailure, CommTimeout):
        pass
    new_comm, dead, _ = shrink_after_failure(comm, timeout=30.0)
    return type(new_comm).__name__, dead, _exchange(new_comm, 1, 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_rules_fire_after_shrink_after_failure(backend):
    plan = FaultPlan().kill_rank(2, 0).corrupt_messages(**_CORRUPT_1_TO_0)
    runtime = create_backend(
        backend, 3, fault_plan=plan, recv_timeout=10.0, elastic=True
    )
    results = runtime.run(_after_shrink)
    assert runtime.dead_ranks == [2]
    assert results[2] is None
    assert results[0] == ("FaultComm", [2], True)
    assert results[1] == ("FaultComm", [2], None)


def _comm_type(comm):
    return type(comm).__name__, getattr(comm, "fault_plan", None) is None


@pytest.mark.parametrize("backend,name", [("thread", "Comm"), ("multiprocess", "MPComm")])
def test_no_plan_hands_out_the_backend_comm(backend, name):
    assert create_backend(backend, 2).run(_comm_type) == [(name, True)] * 2

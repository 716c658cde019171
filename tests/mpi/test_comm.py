"""Tests of the SPMD runtime and communicator collectives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi.runtime import MPIRuntime, run_spmd

SIZES = [1, 2, 4, 7, 8]


class TestRuntime:
    def test_rank_identity(self):
        out = run_spmd(4, lambda comm: (comm.rank, comm.size))
        assert out == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_single_rank_runs_inline(self):
        out = run_spmd(1, lambda comm: comm.rank)
        assert out == [0]

    def test_exception_propagates(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.barrier()  # would deadlock without abort handling

        with pytest.raises(RuntimeError, match="rank 2"):
            run_spmd(4, fn)

    def test_exception_while_peer_recv_blocked(self):
        def fn(comm):
            if comm.rank == 0:
                raise ValueError("fail before send")
            comm.recv(0)

        with pytest.raises(RuntimeError, match="rank 0"):
            run_spmd(2, fn)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            MPIRuntime(0)
        with pytest.raises(ValueError):
            MPIRuntime(4, torus_shape=(3, 1, 1))


class TestPointToPoint:
    def test_send_recv_array(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(10), dest=1, tag=7)
                return None
            return comm.recv(0, tag=7)

        out = run_spmd(2, fn)
        np.testing.assert_array_equal(out[1], np.arange(10))

    def test_send_copies_buffers(self):
        """Mutating the sent array after send must not affect receiver."""

        def fn(comm):
            if comm.rank == 0:
                a = np.zeros(4)
                comm.send(a, dest=1)
                a[:] = 99.0
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(0)

        out = run_spmd(2, fn)
        np.testing.assert_array_equal(out[1], np.zeros(4))

    @pytest.mark.parametrize(
        "wrap, unwrap",
        [
            (lambda a: {"a": a}, lambda got: got["a"]),
            (lambda a: [0, [a]], lambda got: got[1][0]),
            (lambda a: ("x", a), lambda got: got[1]),
        ],
        ids=["dict", "list", "tuple"],
    )
    def test_send_copies_arrays_inside_containers(self, wrap, unwrap):
        """An array nested in a payload is copied too: the sender
        writing to it after ``send`` leaves the receiver's value alone."""

        def fn(comm):
            if comm.rank == 0:
                a = np.zeros(4)
                comm.send(wrap(a), dest=1)
                a[:] = 99.0
                comm.barrier()
                return None
            comm.barrier()
            return unwrap(comm.recv(0))

        out = run_spmd(2, fn)
        np.testing.assert_array_equal(out[1], np.zeros(4))

    def test_tag_mismatch_raises(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, dest=1, tag=5)
            else:
                comm.recv(0, tag=6)

        with pytest.raises(RuntimeError, match="tag mismatch|rank"):
            run_spmd(2, fn)

    def test_sendrecv_ring(self):
        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, dest=right, source=left)

        out = run_spmd(5, fn)
        assert out == [4, 0, 1, 2, 3]

    def test_invalid_ranks(self):
        def fn(comm):
            comm.send(1, dest=99)

        with pytest.raises(RuntimeError):
            run_spmd(2, fn)


class TestCollectives:
    @pytest.mark.parametrize("size", SIZES)
    def test_bcast(self, size):
        def fn(comm):
            data = {"v": 42} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        out = run_spmd(size, fn)
        assert all(o == {"v": 42} for o in out)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("root", [0, -1])
    def test_bcast_nonzero_root(self, size, root):
        root = root % size

        def fn(comm):
            return comm.bcast(comm.rank if comm.rank == root else None, root=root)

        assert run_spmd(size, fn) == [root] * size

    @pytest.mark.parametrize("size", SIZES)
    def test_reduce_sum(self, size):
        def fn(comm):
            return comm.reduce(comm.rank + 1, op="sum", root=0)

        out = run_spmd(size, fn)
        assert out[0] == size * (size + 1) // 2
        assert all(o is None for o in out[1:])

    @pytest.mark.parametrize("op,expected", [("max", 7), ("min", 1), ("sum", 16)])
    def test_reduce_ops(self, op, expected):
        values = [3, 7, 1, 5]

        def fn(comm):
            return comm.reduce(values[comm.rank], op=op, root=0)

        assert run_spmd(4, fn)[0] == expected

    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_array(self, size):
        def fn(comm):
            return comm.allreduce(np.full(3, float(comm.rank)), op="sum")

        out = run_spmd(size, fn)
        expected = np.full(3, sum(range(size)), dtype=float)
        for o in out:
            np.testing.assert_array_equal(o, expected)

    @pytest.mark.parametrize("size", SIZES)
    def test_gather(self, size):
        def fn(comm):
            return comm.gather(comm.rank**2, root=0)

        out = run_spmd(size, fn)
        assert out[0] == [r**2 for r in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_allgather(self, size):
        def fn(comm):
            return comm.allgather(comm.rank)

        out = run_spmd(size, fn)
        assert all(o == list(range(size)) for o in out)

    @pytest.mark.parametrize("size", SIZES)
    def test_scatter(self, size):
        def fn(comm):
            objs = [10 * r for r in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(objs, root=0)

        assert run_spmd(size, fn) == [10 * r for r in range(size)]

    def test_scatter_requires_full_list(self):
        def fn(comm):
            return comm.scatter([1] if comm.rank == 0 else None, root=0)

        with pytest.raises(RuntimeError):
            run_spmd(2, fn)

    @pytest.mark.parametrize("size", SIZES)
    def test_alltoall(self, size):
        def fn(comm):
            objs = [f"{comm.rank}->{d}" for d in range(comm.size)]
            return comm.alltoall(objs)

        out = run_spmd(size, fn)
        for r, received in enumerate(out):
            assert received == [f"{s}->{r}" for s in range(size)]

    @pytest.mark.parametrize("size", SIZES)
    def test_alltoallv_ragged_arrays(self, size):
        def fn(comm):
            sends = [
                np.full(d + 1, comm.rank * 100 + d, dtype=np.float64)
                for d in range(comm.size)
            ]
            return comm.alltoallv(sends)

        out = run_spmd(size, fn)
        for r, received in enumerate(out):
            for s, arr in enumerate(received):
                np.testing.assert_array_equal(
                    arr, np.full(r + 1, s * 100 + r, dtype=np.float64)
                )

    def test_barrier_synchronizes(self):
        """After a barrier, all pre-barrier sends are observable."""
        import time

        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.02)
                comm.send(np.array([1.0]), dest=1)
            comm.barrier()
            if comm.rank == 1:
                return comm.recv(0)[0]
            return None

        assert run_spmd(2, fn)[1] == 1.0


class TestSplit:
    def test_split_even_odd(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            return (sub.rank, sub.size)

        out = run_spmd(6, fn)
        for r, (sr, ss) in enumerate(out):
            assert ss == 3
            assert sr == r // 2

    def test_split_with_none_color(self):
        def fn(comm):
            sub = comm.split(color=0 if comm.rank < 2 else None)
            return None if sub is None else sub.size

        out = run_spmd(5, fn)
        assert out == [2, 2, None, None, None]

    def test_split_key_reorders(self):
        def fn(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        out = run_spmd(4, fn)
        assert out == [3, 2, 1, 0]

    def test_subcomm_collectives_independent(self):
        def fn(comm):
            sub = comm.split(color=comm.rank // 2)
            return sub.allreduce(comm.rank, op="sum")

        out = run_spmd(4, fn)
        assert out == [1, 1, 5, 5]

    def test_nested_split(self):
        def fn(comm):
            sub = comm.split(color=comm.rank // 4)
            subsub = sub.split(color=sub.rank // 2)
            return (sub.size, subsub.size, subsub.rank)

        out = run_spmd(8, fn)
        assert all(o[0] == 4 and o[1] == 2 for o in out)

    def test_repeated_splits_dont_collide(self):
        def fn(comm):
            a = comm.split(color=comm.rank % 2)
            b = comm.split(color=comm.rank % 2)
            return a.allreduce(1) + b.allreduce(1)

        out = run_spmd(4, fn)
        assert out == [4, 4, 4, 4]

    def test_world_rank_preserved_through_split(self):
        def fn(comm):
            sub = comm.split(color=comm.rank % 2)
            return sub.world_rank

        out = run_spmd(4, fn)
        assert out == [0, 1, 2, 3]

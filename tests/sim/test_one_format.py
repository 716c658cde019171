"""One checkpoint format across drivers: a serial run is rank 0 of 1.

A checkpoint written by either driver resumes on the other through the
files alone, bit for bit, and the serial driver gets the same disk
safety (preflight, ``ENOSPC`` handling, digests, ``scrub``) as the
distributed one.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.cli import main, run_from_config
from repro.config import (
    DomainConfig,
    PMConfig,
    SimulationConfig,
    TreeConfig,
    TreePMConfig,
)
from repro.cosmology.params import WMAP7
from repro.cosmology.power_spectrum import PowerSpectrum
from repro.ic.zeldovich import ZeldovichIC
from repro.integrate.stepper import CosmoStepper
from repro.mpi.faults import flip_file_bits
from repro.sim import checkpoint as _ckpt
from repro.sim.checkpoint import CheckpointError, CheckpointSpaceError
from repro.sim.parallel import resume_parallel_simulation, run_parallel_simulation
from repro.sim.serial import SerialSimulation

# a small Zel'dovich box in the regime of the uniform_mesh benchmark
# input: >= 4 mesh cells between particles, so no two ranks ever add
# into one density cell and the serial and 2-rank trajectories agree
# bit for bit (asserted below before any replay is trusted)
N_PER_DIM, MESH = 8, 32
A0 = 1.0 / 401.0
A3 = A0 * (401.0 / 201.0) ** (3.0 / 40.0)


def _cfg(ranks=2):
    return SimulationConfig(
        treepm=TreePMConfig(
            tree=TreeConfig(opening_angle=0.5, group_size=64),
            pm=PMConfig(mesh_size=MESH),
            rcut_mesh_units=3.0,
            softening=0.02 / N_PER_DIM,
        ),
        domain=DomainConfig(
            divisions=(ranks, 1, 1), sample_rate=0.1, cost_balance=False
        ),
        pp_subcycles=2,
    )


@pytest.fixture(scope="module")
def box():
    base = PowerSpectrum(WMAP7, k_fs=1.0e6).in_box_units(40.0e-6)
    ic = ZeldovichIC(
        WMAP7, lambda k, z=0.0: 9.0 * base(k, z), n_per_dim=N_PER_DIM, seed=1
    )
    pos, mom, mass = ic.generate(a_start=A0)
    serial = SerialSimulation(_cfg(1), pos, mom, mass, stepper=CosmoStepper(WMAP7))
    serial.run(A0, A3, 3)
    return (pos, mom, mass), (serial.pos, serial.mom)


def _assert_reference(pos, mom, reference):
    np.testing.assert_array_equal(pos, reference[0])
    np.testing.assert_array_equal(mom, reference[1])


class TestCrossDriverReplay:
    def test_serial_and_two_ranks_agree_uninterrupted(self, box):
        (pos, mom, mass), reference = box
        p, m, _, _, _ = run_parallel_simulation(
            _cfg(), pos, mom, mass, A0, A3, 3, stepper=CosmoStepper(WMAP7)
        )
        _assert_reference(p, m, reference)

    @pytest.mark.parametrize("backend", ["thread", "multiprocess"])
    def test_serial_checkpoint_resumes_on_two_ranks(self, box, tmp_path, backend):
        (pos, mom, mass), reference = box
        sim = SerialSimulation(_cfg(1), pos, mom, mass, stepper=CosmoStepper(WMAP7))
        sim.run(A0, A3, 3, checkpoint_every=1, checkpoint_path=tmp_path)
        p, m, _, sims, _ = resume_parallel_simulation(
            _cfg(), tmp_path / "step_00001",
            stepper=CosmoStepper(WMAP7), backend=backend,
        )
        assert [s.steps_taken for s in sims] == [3, 3]
        _assert_reference(p, m, reference)

    @pytest.mark.parametrize("backend", ["thread", "multiprocess"])
    def test_two_rank_checkpoint_resumes_serially(self, box, tmp_path, backend):
        (pos, mom, mass), reference = box
        run_parallel_simulation(
            _cfg(), pos, mom, mass, A0, A3, 3, stepper=CosmoStepper(WMAP7),
            checkpoint_every=1, checkpoint_dir=tmp_path, backend=backend,
        )
        sim, manifest = SerialSimulation.from_checkpoint(
            _cfg(1), tmp_path / "step_00001", stepper=CosmoStepper(WMAP7)
        )
        assert manifest["n_ranks"] == 2
        assert manifest["time"] == float(np.linspace(A0, A3, 4)[1])
        sim.run(A0, A3, 3, first_step=manifest["steps_taken"])
        _assert_reference(sim.pos, sim.mom, reference)

    def test_serial_checkpoint_restores_on_one_rank(self, box, tmp_path):
        (pos, mom, mass), reference = box
        sim = SerialSimulation(_cfg(1), pos, mom, mass, stepper=CosmoStepper(WMAP7))
        sim.run(A0, A3, 3, checkpoint_every=1, checkpoint_path=tmp_path)
        p, m, _, _, _ = resume_parallel_simulation(
            _cfg(1), tmp_path / "step_00001", stepper=CosmoStepper(WMAP7)
        )
        _assert_reference(p, m, reference)


class TestSerialDiskSafety:
    def _sim(self, box):
        (pos, mom, mass), _ = box
        return SerialSimulation(_cfg(1), pos, mom, mass, stepper=CosmoStepper(WMAP7))

    def test_enospc_keeps_last_complete_epoch(self, box, tmp_path, monkeypatch):
        sim = self._sim(box)
        sim.run(A0, A3, 3, checkpoint_every=1, checkpoint_path=tmp_path)
        real_atomic_write = _ckpt.atomic_write

        def full_disk(path, writer, **kwargs):
            if path.name.startswith("rank_"):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_atomic_write(path, writer, **kwargs)

        monkeypatch.setattr(_ckpt, "atomic_write", full_disk)
        sim.steps_taken = 4
        with pytest.raises(CheckpointSpaceError, match="disk full"):
            sim.save_checkpoint(tmp_path, A3)
        monkeypatch.undo()
        assert not (tmp_path / "step_00004").exists()
        assert _ckpt.latest_checkpoint(tmp_path) == tmp_path / "step_00003"
        assert all(rep["ok"] for rep in _ckpt.scrub_checkpoints(tmp_path))

    @pytest.mark.parametrize("driver", ["serial", "thread"])
    def test_refused_preflight_leaves_no_epoch(
        self, box, tmp_path, monkeypatch, driver
    ):
        """The step directory is created only after the preflight
        passes: a refused epoch leaves nothing that ``scrub`` flags or
        that ``latest_checkpoint`` could pick."""
        real_statvfs = os.statvfs

        class Starved:
            def __init__(self, st):
                self.f_bavail = 0
                self.f_frsize = st.f_frsize

        monkeypatch.setattr(os, "statvfs", lambda p: Starved(real_statvfs(p)))
        (pos, mom, mass), _ = box
        if driver == "serial":
            # the first epoch has no size estimate and goes through
            with pytest.raises(CheckpointSpaceError, match="insufficient"):
                self._sim(box).run(
                    A0, A3, 3, checkpoint_every=1, checkpoint_path=tmp_path
                )
        else:
            with pytest.raises(RuntimeError) as ei:
                run_parallel_simulation(
                    _cfg(), pos, mom, mass, A0, A3, 3,
                    stepper=CosmoStepper(WMAP7),
                    checkpoint_every=1, checkpoint_dir=tmp_path,
                )
            assert all(
                isinstance(e, CheckpointSpaceError)
                for e in ei.value.rank_errors.values()
            )
        monkeypatch.undo()
        assert [p.name for p in _ckpt.list_checkpoints(tmp_path)] == ["step_00001"]
        reports = _ckpt.scrub_checkpoints(tmp_path)
        assert [rep["ok"] for rep in reports] == [True]

    def test_flipped_byte_flagged_by_scrub_and_resume(self, tmp_path, capsys):
        cfg = {
            "kind": "static", "n_particles": 48, "mesh_size": 8,
            "end": 0.2, "n_steps": 4, "seed": 9,
        }
        root = tmp_path / "ck"
        run_from_config(
            cfg, log=lambda *a: None, checkpoint_every=2, checkpoint_dir=root
        )
        name = _ckpt.rank_filename(0, 1)
        flip_file_bits(root / "step_00004" / name, nbits=1, seed=3)
        assert main(["ckpt", "scrub", str(root)]) == 1
        err = capsys.readouterr().err
        assert "INVALID step_00004" in err and name in err
        with pytest.raises(CheckpointError, match=name):
            run_from_config(cfg, log=lambda *a: None, resume=root)

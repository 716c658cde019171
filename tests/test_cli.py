"""Tests of the command-line runner."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main, run_from_config
from repro.sim.checkpoint import latest_checkpoint, load_distributed_checkpoint


def _quiet(*args, **kwargs):
    pass


class TestRunFromConfig:
    def test_static_run(self):
        summary = run_from_config(
            {
                "kind": "static",
                "n_particles": 64,
                "mesh_size": 16,
                "end": 0.05,
                "n_steps": 2,
            },
            log=_quiet,
        )
        assert summary["steps"] == 2
        assert summary["kind"] == "static"
        assert summary["interactions_last_pp"] > 0

    def test_cosmological_run_with_snapshots(self, tmp_path):
        summary = run_from_config(
            {
                "kind": "cosmological",
                "n_per_dim": 4,
                "mesh_size": 8,
                "start": 0.01,
                "end": 0.02,
                "n_steps": 3,
                "snapshots": [0.01, 0.02],
                "output_dir": str(tmp_path),
            },
            log=_quiet,
        )
        assert len(summary["snapshots"]) == 2
        # snapshot epochs are checkpoint epochs under output_dir/snapshots
        assert summary["snapshots"] == [
            str(tmp_path / "snapshots" / "step_00000"),
            str(tmp_path / "snapshots" / "step_00003"),
        ]
        merged = load_distributed_checkpoint(summary["snapshots"][-1])
        manifest = merged["manifest"]
        assert manifest["run_config"]["kind"] == "cosmological"
        assert manifest["total_particles"] == 64
        assert manifest["time"] == pytest.approx(0.02)
        assert np.all((merged["pos"] >= 0) & (merged["pos"] < 1))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            run_from_config({"particles": 10}, log=_quiet)

    def test_snapshot_requires_output_dir(self):
        with pytest.raises(ValueError, match="output_dir"):
            run_from_config(
                {"kind": "static", "snapshots": [0.1]}, log=_quiet
            )

    def test_snapshot_epoch_validated(self, tmp_path):
        with pytest.raises(ValueError, match="outside"):
            run_from_config(
                {
                    "kind": "static",
                    "end": 0.1,
                    "snapshots": [0.5],
                    "output_dir": str(tmp_path),
                },
                log=_quiet,
            )

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            run_from_config({"kind": "magnetohydro"}, log=_quiet)

    def test_2lpt_initial_conditions(self):
        summary = run_from_config(
            {
                "kind": "cosmological",
                "n_per_dim": 4,
                "mesh_size": 8,
                "start": 0.01,
                "end": 0.015,
                "n_steps": 1,
                "lpt_order": 2,
            },
            log=_quiet,
        )
        assert summary["steps"] == 1

    def test_invalid_lpt_order(self):
        with pytest.raises(ValueError, match="lpt_order"):
            run_from_config(
                {"kind": "cosmological", "lpt_order": 3, "n_steps": 1},
                log=_quiet,
            )


class TestCheckpointResumeFlags:
    _CFG = {
        "kind": "static",
        "n_particles": 48,
        "mesh_size": 8,
        "end": 0.2,
        "n_steps": 4,
        "seed": 9,
    }

    def test_checkpoint_every_requires_directory(self):
        with pytest.raises(ValueError, match="checkpoint"):
            run_from_config(dict(self._CFG), log=_quiet, checkpoint_every=1)

    def test_checkpoint_then_resume_bit_for_bit(self, tmp_path):
        from repro.sim.serial import SerialSimulation
        from repro.cli import _DEFAULTS, _build_config

        straight = run_from_config(
            dict(self._CFG), log=_quiet,
            checkpoint_every=4, checkpoint_dir=tmp_path / "straight",
        )

        # build the interrupted state: first 2 of 4 steps, checkpointed
        cfg = _build_config({**_DEFAULTS, **self._CFG})
        rng = np.random.default_rng(self._CFG["seed"])
        n = self._CFG["n_particles"]
        pos = rng.random((n, 3))
        sim = SerialSimulation(cfg, pos, np.zeros((n, 3)), np.full(n, 1.0 / n))
        edges = np.linspace(0.0, 0.2, 5)
        for i in range(2):
            sim.step(float(edges[i]), float(edges[i + 1]))
        ckpt = tmp_path / "mid"
        sim.save_checkpoint(ckpt, float(edges[2]))

        resumed = run_from_config(
            dict(self._CFG), log=_quiet, resume=ckpt, checkpoint_every=2,
        )
        assert resumed["resumed_from"] == str(ckpt)
        assert resumed["steps"] == 4
        # a resumed run keeps checkpointing into the root it resumed from
        assert resumed["checkpoint"] == str(ckpt)
        # its final epoch equals the straight run's, bit for bit
        final = load_distributed_checkpoint(ckpt / "step_00004")
        ref = load_distributed_checkpoint(tmp_path / "straight" / "step_00004")
        assert straight["steps"] == final["manifest"]["steps_taken"] == 4
        for name in ("pos", "mom", "mass"):
            np.testing.assert_array_equal(final[name], ref[name])

    def test_resume_past_schedule_rejected(self, tmp_path):
        from repro.sim.serial import SerialSimulation
        from repro.cli import _DEFAULTS, _build_config

        cfg = _build_config({**_DEFAULTS, **self._CFG})
        sim = SerialSimulation(
            cfg, np.random.default_rng(0).random((48, 3)),
            np.zeros((48, 3)), np.full(48, 1.0 / 48),
        )
        sim.steps_taken = 99
        sim.save_checkpoint(tmp_path / "late", 0.2)
        with pytest.raises(ValueError, match="step 99"):
            run_from_config(
                dict(self._CFG), log=_quiet, resume=tmp_path / "late"
            )

    def test_resume_refuses_single_file_npz(self, tmp_path):
        legacy = tmp_path / "checkpoint.npz"
        np.savez(legacy, pos=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="single-file .npz"):
            run_from_config(dict(self._CFG), log=_quiet, resume=legacy)

    def test_resume_refuses_other_checkpoint_dir(self, tmp_path):
        run_from_config(
            dict(self._CFG), log=_quiet,
            checkpoint_every=2, checkpoint_dir=tmp_path / "ck",
        )
        with pytest.raises(ValueError, match="keeps checkpointing into"):
            run_from_config(
                dict(self._CFG), log=_quiet, resume=tmp_path / "ck",
                checkpoint_every=2, checkpoint_dir=tmp_path / "elsewhere",
            )

    @pytest.mark.parametrize("backend", ["serial", "thread", "multiprocess"])
    def test_resume_on_every_backend(self, tmp_path, backend):
        """A serial checkpoint resumes on any backend: from its mid-run
        step directory, the resumed run rewrites the final epoch."""
        root = tmp_path / "ck"
        run_from_config(
            dict(self._CFG), log=_quiet, checkpoint_every=2, checkpoint_dir=root
        )
        ranks = 1 if backend == "serial" else 2
        summary = run_from_config(
            {**self._CFG, "backend": backend, "ranks": ranks}, log=_quiet,
            resume=root / "step_00002", checkpoint_every=2,
        )
        assert summary["steps"] == 4
        assert summary["checkpoint"] == str(root)
        final = latest_checkpoint(root)
        assert final.name == "step_00004"
        assert load_distributed_checkpoint(final)["manifest"]["n_ranks"] == ranks

    def test_main_passes_flags_through(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(self._CFG))
        assert main([
            "run", str(cfg_path),
            "--checkpoint-every", "2",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]) == 0
        assert (tmp_path / "ck" / "LATEST").exists()
        assert main([
            "run", str(cfg_path),
            "--resume", str(tmp_path / "ck"),
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out


class TestMain:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "4.45 Pflops" in out
        assert "heap policy: " in out
        assert "native stages active: " in out

    def test_run_with_summary_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "static",
                    "n_particles": 32,
                    "mesh_size": 16,
                    "end": 0.02,
                    "n_steps": 1,
                }
            )
        )
        summary_path = tmp_path / "summary.json"
        assert main(["run", str(cfg), "--summary", str(summary_path)]) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["steps"] == 1


class TestSdcFlags:
    _CFG = {
        "kind": "static",
        "n_particles": 48,
        "mesh_size": 8,
        "end": 0.2,
        "n_steps": 2,
        "seed": 9,
    }

    def test_build_config_plumbs_sdc_keys(self):
        from repro.cli import _DEFAULTS, _build_config

        cfg = _build_config({
            **_DEFAULTS, **self._CFG,
            "validation": {
                "overrides": {"sdc": "recover"}, "interval": 3,
                "spot_check_groups": 7,
            },
        })
        assert cfg.validation.overrides == {"sdc": "recover"}
        assert cfg.validation.interval == 3
        assert cfg.validation.spot_check_groups == 7

    def test_invalid_sdc_policy_rejected(self):
        for old in ("retry", "heal"):
            with pytest.raises(ValueError, match="policy"):
                run_from_config(
                    {**self._CFG, "validation": {"overrides": {"sdc": old}}},
                    log=_quiet,
                )
        with pytest.raises(ValueError, match="unknown validation keys"):
            run_from_config(
                {**self._CFG, "validation": {"audit_every": 2}}, log=_quiet
            )

    def test_main_sdc_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {**self._CFG, "validation": {"policy": "abort"}}
        ))
        assert main([
            "run", str(cfg_path),
            "--guard", "warn",
            "--guard", "sdc=recover",
            "--guard-every", "2",
        ]) == 0

    def test_build_config_plumbs_health_keys(self):
        from repro.cli import _DEFAULTS, _build_config

        cfg = _build_config({
            **_DEFAULTS, **self._CFG,
            "validation": {
                "overrides": {"straggler": "recover"},
                "straggler_factor": 4.5,
                "straggler_patience": 5,
            },
        })
        assert cfg.validation.overrides == {"straggler": "recover"}
        assert cfg.validation.straggler_factor == 4.5
        assert cfg.validation.straggler_patience == 5

    def test_invalid_health_policy_rejected(self):
        for old in ("panic", "monitor", "evict", "degrade"):
            with pytest.raises(ValueError, match="policy"):
                run_from_config(
                    {**self._CFG,
                     "validation": {"overrides": {"straggler": old}}},
                    log=_quiet,
                )

    def test_main_health_flags_override_config(self, tmp_path):
        """The straggler guard belongs to the elastic runner: a serial
        run refuses it instead of accepting it and doing nothing."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(self._CFG))
        with pytest.raises(ValueError, match="'straggler'.*ElasticRunner"):
            main(["run", str(cfg_path), "--guard", "straggler=recover"])

    @pytest.mark.parametrize(
        "flags, check",
        [
            (["--guard", "straggler=recover"], "straggler"),
            (["--backend", "thread", "--ranks", "2",
              "--guard", "sdc=recover"], "sdc"),
        ],
        ids=["serial-straggler", "thread-sdc"],
    )
    def test_guard_nothing_runs_exits_nonzero(self, tmp_path, flags, check):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(self._CFG))
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(cfg_path), *flags],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode != 0
        assert f"'{check}'" in proc.stderr and "ElasticRunner" in proc.stderr

    def test_keep_last_flag_prunes_epochs(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(self._CFG))
        assert main([
            "run", str(cfg_path), "--checkpoint-every", "1",
            "--checkpoint-dir", str(tmp_path / "ck"), "--keep-last", "1",
        ]) == 0
        assert [p.name for p in (tmp_path / "ck").glob("step_*")] == [
            "step_00002"
        ]


class TestCkptScrubCommand:
    def _make_set(self, root, steps=(0, 1, 2)):
        from repro.sim import checkpoint as _ckpt

        for step in steps:
            step_dir = root / _ckpt.step_dirname(step)
            step_dir.mkdir(parents=True)
            name = _ckpt.rank_filename(0, 1)
            digest = _ckpt.write_rank_file(
                step_dir / name,
                {"pos": np.full((4, 3), float(step))},
                {"rank": 0},
            )
            _ckpt.write_manifest(step_dir, {
                "version": _ckpt.CHECKPOINT_VERSION,
                "n_ranks": 1,
                "steps_taken": step,
                "schedule": {"next_step": step},
                "config_hash": "test",
                "files": [{
                    "rank": 0, "name": name,
                    "sha256": digest, "n_particles": 4,
                }],
            })
            _ckpt.update_latest(root, step_dir.name)
        return root

    def test_scrub_clean_set_exits_zero(self, tmp_path, capsys):
        self._make_set(tmp_path)
        assert main(["ckpt", "scrub", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 3
        assert "all clean" in out

    def test_scrub_rotted_epoch_exits_nonzero(self, tmp_path, capsys):
        from repro.mpi.faults import flip_file_bits
        from repro.sim import checkpoint as _ckpt

        self._make_set(tmp_path)
        flip_file_bits(
            tmp_path / "step_00001" / _ckpt.rank_filename(0, 1),
            nbits=1, seed=4,
        )
        assert main(["ckpt", "scrub", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "INVALID step_00001" in captured.err
        assert "1 failed" in captured.out

    def test_scrub_empty_dir_exits_nonzero(self, tmp_path, capsys):
        assert main(["ckpt", "scrub", str(tmp_path)]) == 1
        assert "no checkpoints" in capsys.readouterr().err


class TestCkptReadsSerialRuns:
    def test_validate_latest_scrub_on_serial_roots(self, tmp_path, capsys):
        """`repro ckpt` reads a serial run's checkpoint root and its
        snapshot root: both are one-rank checkpoint epochs."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "kind": "static", "n_particles": 32, "mesh_size": 8,
            "end": 0.04, "n_steps": 2, "snapshots": [0.02, 0.04],
            "output_dir": str(tmp_path / "out"),
        }))
        assert main([
            "run", str(cfg_path),
            "--checkpoint-every", "1", "--checkpoint-dir", str(tmp_path / "ck"),
        ]) == 0
        for root in (tmp_path / "ck", tmp_path / "out" / "snapshots"):
            capsys.readouterr()
            for command in ("validate", "latest", "scrub"):
                assert main(["ckpt", command, str(root)]) == 0
            out = capsys.readouterr().out
            assert "OK: 1 rank file(s) verified" in out
            assert "step_00002" in out
            assert "scrubbed 2 epoch(s), all clean" in out

"""The fused gradient-gather: ``interpolate_local(phi, ..., difference=)``.

Differencing the potential at the gather must reproduce, bit for bit,
storing ``gradient_block`` and interpolating from it — for every
assignment scheme and both difference stencils, on regions that exceed
the mesh and alias, with particles on the domain faces — whether the
native kernel or the numpy fallback does the work.  Every case runs in
both modes; the native half skips when there is no compiler.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.mesh import assignment
from repro.mesh.assignment import differences_at_gather, interpolate_local
from repro.mesh.differentiate import gradient_block
from repro.meshcomm.slab import LocalMeshRegion
from repro.native import meshops

SCHEMES = ["ngp", "cic", "tsc"]
DIFFERENCES = ["two_point", "four_point"]
GHOST = 3  # repro.meshcomm.parallel_pm.POTENTIAL_GHOST
TRIM = 2


def _reference(phi, pos, region, box, scheme, difference):
    """Store-then-interpolate through the numpy loops only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_NO_NATIVE_MESH", "1")
        grad = gradient_block(phi, box / region.n, difference, trim=TRIM)
        return interpolate_local(grad, pos, region, box, scheme, trim=TRIM)


def _case(n, dom_lo, dom_hi, box, n_particles, seed):
    """A ghosted potential block for a spatial domain, and particles
    inside it, two of them on the faces."""
    rng = np.random.default_rng(seed)
    dom_lo, dom_hi = np.asarray(dom_lo) * box, np.asarray(dom_hi) * box
    region = LocalMeshRegion.from_domain(n, dom_lo, dom_hi, box, GHOST)
    phi = rng.standard_normal(region.array_shape)
    pos = dom_lo + rng.random((n_particles, 3)) * (dom_hi - dom_lo)
    pos[0] = dom_lo
    pos[1] = np.nextafter(dom_hi, 0.0)
    return region, phi, pos


@pytest.mark.parametrize("difference", DIFFERENCES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "n,dom_lo,dom_hi,box",
    [
        (32, (0.25, 0.0, 0.5), (0.5, 0.5, 1.0), 1.0),
        (16, (0.5, 0.25, 0.0), (1.0, 0.75, 1.0), 0.7),
        # full-axis domain on a small mesh: n + 3 + 2 * GHOST planes per
        # axis, so the block exceeds the mesh and cells alias
        (16, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1.0),
    ],
)
def test_bitwise_equal_to_stored_gradient(mesh_kernels, n, dom_lo, dom_hi, box, scheme, difference):
    region, phi, pos = _case(n, dom_lo, dom_hi, box, 300, seed=n)
    assert differences_at_gather(phi, difference, TRIM) == (mesh_kernels == "native")
    got = interpolate_local(
        phi, pos, region, box, scheme, trim=TRIM, difference=difference
    )
    ref = _reference(phi, pos, region, box, scheme, difference)
    assert got.shape == (len(pos), 3)
    assert np.array_equal(got, ref)


def test_aliasing_region_exceeds_mesh():
    region, _, _ = _case(16, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1.0, 2, seed=0)
    assert min(region.array_shape) > region.n


def test_zero_particles(mesh_kernels):
    region, phi, _ = _case(16, (0.0, 0.0, 0.0), (0.5, 1.0, 1.0), 1.0, 2, seed=1)
    out = interpolate_local(
        phi, np.empty((0, 3)), region, 1.0, "tsc", trim=TRIM, difference="four_point"
    )
    assert out.shape == (0, 3)
    plain = interpolate_local(phi, np.empty((0, 3)), region, 1.0, "tsc")
    assert plain.shape == (0,)


def test_stencil_leaving_the_mesh_raises_before_any_kernel_call(mesh_kernels, monkeypatch):
    region, phi, pos = _case(16, (0.0, 0.0, 0.0), (0.5, 1.0, 1.0), 1.0, 10, seed=2)
    pos[3, 0] = 0.8  # far outside the x extent of the block

    def forbidden(*args, **kwargs):
        raise AssertionError("kernel reached with unvalidated indices")

    monkeypatch.setattr(meshops, "gather_gradient", forbidden)
    monkeypatch.setattr(assignment, "gradient_block", forbidden)
    with pytest.raises(ValueError, match="interpolation stencil leaves the local mesh"):
        interpolate_local(
            phi, pos, region, 1.0, "tsc", trim=TRIM, difference="four_point"
        )


@pytest.mark.parametrize(
    "spoil",
    [
        lambda phi: np.asfortranarray(phi),
        lambda phi: np.repeat(phi, 2, axis=2)[:, :, ::2],
        lambda phi: phi.astype(np.float32),
    ],
    ids=["fortran", "strided", "float32"],
)
def test_out_of_contract_potential_falls_back(mesh_kernels, spoil, monkeypatch):
    region, phi, pos = _case(16, (0.0, 0.5, 0.0), (1.0, 1.0, 0.5), 1.0, 100, seed=3)
    phi = spoil(phi)
    assert not differences_at_gather(phi, "four_point", TRIM)
    monkeypatch.setattr(
        meshops, "_gather_gradient_with",
        lambda *a, **k: pytest.fail("kernel called out of contract"),
    )
    got = interpolate_local(
        phi, pos, region, 1.0, "tsc", trim=TRIM, difference="four_point"
    )
    assert np.array_equal(got, _reference(phi, pos, region, 1.0, "tsc", "four_point"))


def test_unsupported_differencing_takes_the_numpy_path(mesh_kernels):
    """``"spectral"`` (or a trim below the stencil half-width) is not
    the kernel's to handle: ``gradient_block`` rejects it as before."""
    region, phi, pos = _case(16, (0.0, 0.0, 0.0), (0.5, 1.0, 1.0), 1.0, 10, seed=4)
    assert not differences_at_gather(phi, "spectral", TRIM)
    assert not differences_at_gather(phi, "four_point", 1)
    with pytest.raises(ValueError, match="unknown differencing scheme"):
        interpolate_local(
            phi, pos, region, 1.0, "tsc", trim=TRIM, difference="spectral"
        )
    with pytest.raises(ValueError, match="trim must be >= 2"):
        interpolate_local(phi, pos, region, 1.0, "tsc", trim=1, difference="four_point")
    with pytest.raises(ValueError, match="3-D block"):
        interpolate_local(
            phi[..., None], pos, region, 1.0, "tsc", trim=TRIM, difference="four_point"
        )


def test_load_gate_covers_the_new_symbols():
    """A library whose gradient-gather or block loops do nothing must
    fail the self-test that gates loading and ``recheck_gates``."""
    lib = meshops.get_lib()
    if lib is None:
        pytest.skip("native mesh kernels unavailable (no C compiler, or REPRO_NO_NATIVE[_MESH] set)")
    assert meshops._self_test(lib)
    for symbol in ("mesh_gather_gradient", "mesh_block_add", "mesh_block_take"):
        names = ("mesh_scatter", "mesh_gather", "mesh_gather_gradient",
                 "mesh_block_add", "mesh_block_take")
        broken = types.SimpleNamespace(**{name: getattr(lib, name) for name in names})
        setattr(broken, symbol, lambda *args: None)
        assert not meshops._self_test(broken), symbol

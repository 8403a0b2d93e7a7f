import tracemalloc

import numpy as np
import pytest

from graphdenoise import DepthMap, DimensionMismatchError, HoleMask, ImageGray

RASTERS = [ImageGray, HoleMask, DepthMap]


def _caller_array(cls, how, rng):
    """The caller's array a raster is made from, and the array a later
    write goes to (its base, for a slice)."""
    values = rng.uniform(0.0, 9.0, (6, 10))
    if cls is HoleMask:
        values = values > 4.5
    if how == "sliced":
        return values[1::2, 2:9], values
    if how == "converted":
        values = values.astype(np.uint8 if cls is HoleMask else np.float32)
    if how == "flat":
        values = values.reshape(-1)
    return values, values


@pytest.mark.parametrize("how", ["contiguous", "sliced", "converted", "flat"])
@pytest.mark.parametrize("cls", RASTERS, ids=lambda c: c.__name__)
def test_a_raster_owns_a_read_only_copy_of_its_samples(rng, cls, how):
    given, held = _caller_array(cls, how, rng)
    r = cls(10, 6, given) if how == "flat" else cls.from_array(given)
    field = getattr(r, r._field)
    want = np.array(given, cls._dtype).reshape(-1)
    assert np.array_equal(field, want)
    assert not field.flags.writeable
    assert not np.shares_memory(field, held)
    assert held.flags.writeable and given.flags.writeable
    held[...] = 0
    given[...] = 1
    assert np.array_equal(field, want)


@pytest.mark.parametrize("width,height", [(2.5, 2), (2, 2.0), (np.float64(3.0), 1),
                                          (True, 3), (4, "4")])
@pytest.mark.parametrize("cls", RASTERS, ids=lambda c: c.__name__)
def test_non_integral_dimensions_rejected(cls, width, height):
    with pytest.raises(DimensionMismatchError, match="must be an integer"):
        cls(width, height, np.zeros(12))


@pytest.mark.parametrize("width,height", [(np.int64(3), np.uint8(2)), (np.int32(6), 1)])
@pytest.mark.parametrize("cls", RASTERS, ids=lambda c: c.__name__)
def test_numpy_integer_dimensions_accepted(cls, width, height):
    r = cls(width, height, np.zeros(6))
    assert (r.width, r.height) == (int(width), int(height))
    assert type(r.width) is int and type(r.height) is int
    assert r.to_array().shape == (int(height), int(width))


@pytest.mark.parametrize("cls", RASTERS, ids=lambda c: c.__name__)
def test_own_freezes_a_fresh_array_without_copying_it(rng, cls):
    fresh = rng.uniform(0.0, 9.0, (6, 10)).astype(cls._dtype)
    r = cls._own(fresh)
    field = getattr(r, r._field)
    assert np.shares_memory(field, fresh)
    assert not field.flags.writeable
    assert r.to_array().shape == (6, 10)
    with pytest.raises(ValueError, match="read-only"):
        field[0] = 0


@pytest.mark.parametrize("how", ["sliced", "transposed", "converted"])
@pytest.mark.parametrize("cls", RASTERS, ids=lambda c: c.__name__)
def test_from_array_copies_the_samples_once(rng, cls, how):
    big = rng.uniform(0.0, 9.0, (512, 512))
    if how == "converted":
        big = big.astype(np.float32)
    given = big[:256, :256].T if how == "transposed" else big[:256, :256]
    field_bytes = 256 * 256 * np.dtype(cls._dtype).itemsize
    tracemalloc.start()
    try:
        r = cls.from_array(given)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(r.to_array(), np.array(given, cls._dtype))
    # one copy of the samples, plus DepthMap's 1-byte-per-pixel checks, not two
    assert peak < 1.25 * field_bytes


def test_package_outputs_are_read_only_and_share_no_memory(tmp_path):
    # every raster below is made by the package, and each one that takes
    # another as input takes a raster made earlier in the list
    from graphdenoise import (FilterKind, FilterSpec, NoiseSpec, WarpParams,
                              WeightParams, add_gaussian_noise, denoise,
                              median_fill, synth_scene, warp_guide)
    from graphdenoise.dibr import load_depth, save_depth
    from graphdenoise.image import load_mask, save_mask

    sc = synth_scene(64, seed=3)
    warped = warp_guide(sc.left, sc.depth, WarpParams())
    noisy = add_gaussian_noise(sc.right, NoiseSpec(10.0, 7))
    out, _ = denoise(noisy, warped.guide, warped.mask, FilterSpec(FilterKind.K_CHEB),
                     WeightParams(), patch_size=32)
    save_depth(tmp_path / "d.pgm", sc.depth, 0.25)
    save_mask(tmp_path / "m.pbm", warped.mask)
    rasters = [sc.left, sc.right, sc.depth, warped.guide, warped.mask, noisy,
               median_fill(noisy, warped.mask), out,
               load_depth(tmp_path / "d.pgm", 0.25), load_mask(tmp_path / "m.pbm")]
    fields = [getattr(r, r._field) for r in rasters]
    for i, field in enumerate(fields):
        assert not field.flags.writeable, i
        assert [np.shares_memory(field, f) for f in fields].count(True) == 1, i

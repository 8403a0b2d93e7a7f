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

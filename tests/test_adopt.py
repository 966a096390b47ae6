"""`CoeffTensor` copies what a caller passes in, but the loaders and the
sign-flip scan hand over arrays they built themselves without a second
copy, through `CoeffTensor._adopt`, which runs the same checks."""

import tracemalloc

import numpy as np
import pytest

from entcheck import CoeffTensor, dumps, gen_product_state, loads


def test_constructor_copies_the_callers_array():
    c = np.array([[1, 2], [3, 4]], dtype=complex)
    t = CoeffTensor(c)
    c[0, 0] = 9
    assert t.array[0, 0] == 1


def test_adopt_keeps_the_array_and_freezes_it():
    c = np.array([[1, 2], [3, 4]], dtype=complex)
    t = CoeffTensor._adopt(c)
    assert t.array is c
    assert not c.flags.writeable


@pytest.mark.parametrize(
    "array, error",
    [
        (np.zeros((2, 2), dtype=complex), "zero tensor"),
        (np.array([[1, np.nan], [0, 1]], dtype=complex), "finite"),
        (np.ones(3, dtype=complex), "at least 2 parties"),
        (np.ones((2, 0), dtype=complex), "dimension"),
    ],
)
def test_adopt_runs_the_constructor_checks(array, error):
    with pytest.raises(ValueError, match=error):
        CoeffTensor._adopt(array)


def test_adopt_takes_only_complex128():
    with pytest.raises(TypeError, match="complex128"):
        CoeffTensor._adopt(np.ones((2, 2)))


@pytest.mark.parametrize("fmt", ["dense", "sparse"])
def test_load_peak_is_about_one_tensor(fmt):
    t = gen_product_state((256, 256), 4)
    text = dumps(t, fmt)
    tracemalloc.start()
    try:
        loaded = loads(text, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.array, t.array)
    # a sparse load also holds a one-byte-per-entry duplicate mask
    assert peak <= 1.3 * t.array.nbytes

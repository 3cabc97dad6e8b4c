import re

import numpy as np
import pytest

from dwmconv.convspec import ConvSpec


@pytest.mark.parametrize("field,value,shown", [
    ("kernel", (2.7, 3), "(2.7, 3)"),
    ("kernel", ("3", 3), "('3', 3)"),
    ("kernel", 3, "3"),
    ("kernel", (True, 3), "(True, 3)"),
    ("stride", (True, 1), "(True, 1)"),
    ("stride", (np.True_, 1), "(np.True_, 1)"),
    ("stride", (1.0, 1), "(1.0, 1)"),
    ("pad", (1, 1, 1, 0.5), "(1, 1, 1, 0.5)"),
    ("pad", 1, "1"),
], ids=["float", "string", "scalar", "bool", "bool-stride", "numpy-bool", "float-stride",
        "float-pad", "scalar-pad"])
def test_a_field_that_is_not_integers_raises_the_fields_error(field, value, shown):
    kwargs = {"kernel": (3, 3), field: value}
    words = "four non-negative" if field == "pad" else "two positive"
    message = f"{field} must be {words} integers, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ConvSpec(**kwargs)


def test_numpy_integers_become_ints():
    spec = ConvSpec(kernel=(np.int64(5), np.int32(3)), stride=np.array([2, 1]),
                    pad=(np.uint8(1), 0, 2, np.int16(0)))
    assert spec == ConvSpec(kernel=(5, 3), stride=(2, 1), pad=(1, 0, 2, 0))
    assert all(type(v) is int for v in (*spec.kernel, *spec.stride, *spec.pad))


def test_a_refused_value_is_shown_as_given():
    with pytest.raises(ValueError, match=r"^kernel must be two positive integers, got \[0, 3\]$"):
        ConvSpec(kernel=[0, 3])
    with pytest.raises(ValueError, match=r"^kernel must be two positive integers, got 33$"):
        ConvSpec(kernel="33")

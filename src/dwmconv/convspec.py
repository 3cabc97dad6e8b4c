"""Convolution geometry: kernel size, stride, padding, output extents."""

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class ConvSpec:
    """Shape parameters of a 2-D convolution.

    kernel  (r_h, r_w) filter taps per axis
    stride  (s_h, s_w) output sampling step
    pad     (top, bottom, left, right) zero padding of the input
    each of ints or numpy integers; a float, string, bool or scalar raises ValueError
    """

    kernel: tuple[int, int]
    stride: tuple[int, int] = (1, 1)
    pad: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self):
        for name, count, least, words in (("kernel", 2, 1, "two positive"),
                                          ("stride", 2, 1, "two positive"),
                                          ("pad", 4, 0, "four non-negative")):
            value = getattr(self, name)
            try:  # ints and numpy integers only (no float or string), and no bool
                entries = tuple(value)
                ints = tuple(map(operator.index, entries))
            except TypeError:  # not iterable, or an entry that is not an integer
                entries = ints = ()
            if len(ints) != count or min(ints) < least or bool in map(type, entries):
                raise ValueError(f"{name} must be {words} integers, got {value}")
            object.__setattr__(self, name, ints)

    def out_dims(self, in_h: int, in_w: int) -> tuple[int, int]:
        """Output extents for an in_h x in_w input, erroring if either is < 1."""
        top, bottom, left, right = self.pad
        oh = (in_h + top + bottom - self.kernel[0]) // self.stride[0] + 1
        ow = (in_w + left + right - self.kernel[1]) // self.stride[1] + 1
        if oh < 1 or ow < 1:
            raise ValueError(
                f"input {in_h}x{in_w} with pad {self.pad} is too small for "
                f"kernel {self.kernel} stride {self.stride}"
            )
        return oh, ow

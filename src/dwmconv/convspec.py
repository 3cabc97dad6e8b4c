"""Convolution geometry: kernel size, stride, padding, output extents."""

from dataclasses import dataclass


@dataclass(frozen=True)
class ConvSpec:
    """Shape parameters of a 2-D convolution.

    kernel  (r_h, r_w) filter taps per axis
    stride  (s_h, s_w) output sampling step
    pad     (top, bottom, left, right) zero padding of the input
    """

    kernel: tuple[int, int]
    stride: tuple[int, int] = (1, 1)
    pad: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self):
        object.__setattr__(self, "kernel", tuple(int(k) for k in self.kernel))
        object.__setattr__(self, "stride", tuple(int(s) for s in self.stride))
        object.__setattr__(self, "pad", tuple(int(p) for p in self.pad))
        if len(self.kernel) != 2 or any(k < 1 for k in self.kernel):
            raise ValueError(f"kernel must be two positive integers, got {self.kernel}")
        if len(self.stride) != 2 or any(s < 1 for s in self.stride):
            raise ValueError(f"stride must be two positive integers, got {self.stride}")
        if len(self.pad) != 4 or any(p < 0 for p in self.pad):
            raise ValueError(f"pad must be four non-negative integers, got {self.pad}")

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

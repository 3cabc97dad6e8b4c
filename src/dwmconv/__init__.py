"""Decomposable Winograd convolution: exact transform generation, kernel
decomposition, forward/backward engines, a FLOP model and benchmark tools."""

from .bench import (AccuracyConfig, AccuracyReport, AccuracyRow, LayerReport,
                    LayerSpec, NetworkReport, NetworkSpec, analyze_network,
                    check_accuracy_bands, load_network, run_accuracy_suite)
from .convspec import ConvSpec
from .decompose import (AxisPart, DecompositionPlan, KernelPart, plan_classic,
                        plan_decomposition, plan_to_json)
from .engines import (ConvOutput, convolve, direct_conv2d, dwm_backward, dwm_conv2d,
                      gemm_conv2d, winograd_conv2d)
from .flops import (FlopReport, FlopTable, flops_direct, flops_dwm, flops_winograd_classic,
                    is_shift_free, mult_counts, speedup_table)
from .tensor import mse, pad_input
from .tensorfile import read_tensor, write_tensor
from .transforms import (NumericTransformSet, TransformSet, VerifyResult,
                         apply_exact, cook_toom, correlate_exact, get_baseline_transform,
                         get_transform, to_float, transform_to_json, verify_transform)

__version__ = "0.1.0"

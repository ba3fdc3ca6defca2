"""A lossy float16 storage tier (ModelHub's design point, §2.2).

ModelHub's PAS optimizes "the storage footprint ... with a minimal loss
of accuracy" — an explicitly *lossy* design point none of the paper's
approaches occupy.  This approach fills that corner of the design space
for comparison: Baseline's set-oriented layout with parameters stored as
IEEE-754 half precision.

* storage: exactly half of Baseline's parameter payload,
* recovery: float16 values widened back to float32 — **not** bit-exact;
  the relative error is bounded by half-precision's ~1e-3 epsilon, and
  ablation A8 measures the end-to-end effect on model quality,
* derived saves are full snapshots, like Baseline.

It *is* Baseline at another dtype — same save path, same recovery plan,
``param_dtype`` in the descriptor.  With dedup on, chunks are the
half-precision layer tensors, keyed by the SHA-256 of their fp16 bytes
(fp32 and fp16 encodings of the same layer never collide).

Registered under the approach name ``"baseline-fp16"``.
"""

from __future__ import annotations

from repro.core.baseline import BaselineApproach, to_float16

__all__ = ["QuantizedBaselineApproach", "to_float16"]


class QuantizedBaselineApproach(BaselineApproach):
    """Set-oriented full snapshots at half precision (lossy)."""

    name = "baseline-fp16"
    dtype = "float16"
    suffix = "params-fp16"

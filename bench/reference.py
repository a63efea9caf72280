"""Numpy references for the six kernel families, written for the
benchmark: the expected output of a data-carrying op never comes from
the compiler or the simulator under test.

Inputs are FP16 (FP32 for the reduction vector), small enough in
magnitude that FP16 storage stays well-conditioned; references
accumulate in FP32. Tolerances follow the repo's own end-to-end tests:
0.02 absolute, doubled for the dual GEMM whose two products sum.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

ATOL = 0.02
ATOL_BY_FAMILY = {"dual_gemm": 2 * ATOL}
#: The reduction vector is an FP32 row sum; only summation order differs.
ATOL_ROW_SUM = 1e-3


def _rand(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return (rng.standard_normal(shape) * 0.1).astype(np.float16)


def _padded(array: np.ndarray, shape) -> np.ndarray:
    out = np.zeros(shape, dtype=array.dtype)
    out[tuple(slice(0, extent) for extent in array.shape)] = array
    return out


def make_inputs(
    family: str,
    shape: Mapping[str, int],
    bucket: Mapping[str, int],
    data_seed: int,
) -> Dict[str, np.ndarray]:
    """Random operands at the exact request ``shape``, zero-padded to
    ``bucket`` (the padded-serving contract), plus zeroed outputs.

    Raises:
        KeyError: ``family`` is not one of the six kernel families.
    """
    rng = np.random.default_rng(data_seed)
    s, b = shape, bucket
    if family in ("gemm", "gemm_reduction", "dual_gemm"):
        inputs = {
            "C": np.zeros((b["m"], b["n"]), np.float16),
            "A": _padded(_rand(rng, s["m"], s["k"]), (b["m"], b["k"])),
        }
        names = ("B1", "B2") if family == "dual_gemm" else ("B",)
        for name in names:
            inputs[name] = _padded(
                _rand(rng, s["k"], s["n"]), (b["k"], b["n"])
            )
        if family == "gemm_reduction":
            inputs["y"] = np.zeros((b["m"],), np.float32)
        return inputs
    if family == "batched_gemm":
        return {
            "C": np.zeros((b["batch"], b["m"], b["n"]), np.float16),
            "A": _padded(
                _rand(rng, s["batch"], s["m"], s["k"]),
                (b["batch"], b["m"], b["k"]),
            ),
            "B": _padded(
                _rand(rng, s["batch"], s["k"], s["n"]),
                (b["batch"], b["k"], b["n"]),
            ),
        }
    if family in ("flash_attention2", "flash_attention3"):
        # Attention is only run at exact (unpadded) shapes: zero-padded
        # keys would still take softmax weight.
        h, n, d = s["heads"], s["seq"], s["head_dim"]
        return {
            "O": np.zeros((h, n, d), np.float16),
            "Q": _rand(rng, h, n, d),
            "KT": _rand(rng, h, d, n),
            "V": _rand(rng, h, n, d),
        }
    raise KeyError(family)


def expected(family: str, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The FP32 outputs ``family`` must produce for ``inputs``."""
    f32 = {name: a.astype(np.float32) for name, a in inputs.items()}
    if family == "gemm":
        return {"C": f32["A"] @ f32["B"]}
    if family == "batched_gemm":
        return {"C": np.einsum("bij,bjk->bik", f32["A"], f32["B"])}
    if family == "dual_gemm":
        return {"C": f32["A"] @ f32["B1"] + f32["A"] @ f32["B2"]}
    if family == "gemm_reduction":
        return {"C": f32["A"] @ f32["B"], "y": f32["A"].sum(axis=1)}
    if family in ("flash_attention2", "flash_attention3"):
        q, kt, v = f32["Q"], f32["KT"], f32["V"]
        scores = q @ kt / np.sqrt(q.shape[2])
        scores -= scores.max(axis=2, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=2, keepdims=True)
        return {"O": probs @ v}
    raise KeyError(family)


def mismatch(
    family: str,
    outputs: Optional[Mapping[str, np.ndarray]],
    want: Mapping[str, np.ndarray],
) -> Optional[str]:
    """``None`` when ``outputs`` match ``want`` within tolerance, else a
    one-line reason naming the first offending tensor."""
    if outputs is None:
        return "no functional outputs returned"
    for name, reference in want.items():
        if name not in outputs:
            return f"output {name!r} missing"
        got = np.asarray(outputs[name], dtype=np.float32)
        if got.shape != reference.shape:
            return f"output {name!r} has shape {got.shape}, want {reference.shape}"
        atol = ATOL_ROW_SUM if name == "y" else ATOL_BY_FAMILY.get(family, ATOL)
        worst = float(np.max(np.abs(got - reference))) if got.size else 0.0
        if not worst <= atol:  # also catches NaN
            return f"output {name!r} off by {worst:.4g} (atol {atol})"
    return None

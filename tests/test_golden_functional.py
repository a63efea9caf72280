"""The functional interpreter's outputs are the bytes they were.

``tests/golden_functional.json`` holds the SHA-256 of every array
:func:`api.run_functional` returns — dtype, shape and raw bytes — for
each of the six kernel families at its smallest registered bucket on
the Hopper model, interpreted at ``Stage.DEPENDENCE`` and at
``Stage.FINAL``, on seeded inputs. A change to how the interpreter
moves data (views, batching, storage) must leave every digest as it
is; the numpy references elsewhere only hold outputs to a tolerance.

Re-record only on a deliberate change to what a kernel computes:
``PYTHONPATH=src python tests/test_golden_functional.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import api
from repro.machine import hopper_machine
from repro.kernels import KERNEL_BUILDERS
from repro.runtime import default_registry

GOLDEN = Path(__file__).with_name("golden_functional.json")

#: Operands drawn at this scale; attention at unit scale, so its
#: scores are not flat (see ``test_pass_preservation.INPUT_SCALE``).
INPUT_SCALE = {"flash_attention2": 1.0, "flash_attention3": 1.0}
#: Parameters the kernels write: zeroed on input.
OUTPUTS = ("C", "y", "O")


def _digest(array: np.ndarray) -> str:
    sha = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def smallest_builds(machine):
    """``(label, build)`` per family at the first rung of every ladder
    (an exact shape, so attention is not padded)."""
    registry = default_registry()
    out = []
    for family in sorted(KERNEL_BUILDERS):
        registered = registry.get(family)
        shape = {
            dim: registered.policy.ladders[dim][0] for dim in registered.dims
        }
        bucket = registered.exact_bucket(shape)
        out.append((f"{family}/{bucket.label()}",
                    family,
                    registered.build(machine, bucket)))
    return out


def _inputs(family, kernel, seed):
    rng = np.random.default_rng(seed)
    scale = INPUT_SCALE.get(family, 0.1)
    inputs = {}
    for param in kernel.final_ir.params:
        dtype = param.dtype.to_numpy()
        if param.name in OUTPUTS:
            inputs[param.name] = np.zeros(param.shape, dtype)
        else:
            inputs[param.name] = (
                rng.standard_normal(param.shape) * scale
            ).astype(dtype)
    return inputs


def compute_digests():
    machine = hopper_machine()
    out = {}
    for seed, (label, family, build) in enumerate(smallest_builds(machine)):
        kernel = api.compile_kernel(build)
        inputs = _inputs(family, kernel, seed)
        for stage in (api.Stage.DEPENDENCE, api.Stage.FINAL):
            outputs = api.run_functional(kernel, inputs, stage=stage)
            for name in sorted(outputs):
                out[f"{label}@{stage.value}:{name}"] = _digest(outputs[name])
    return out


def test_functional_outputs_match_the_recorded_digests():
    golden = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert sorted(got) == sorted(golden)
    wrong = sorted(k for k in golden if got[k] != golden[k])
    assert not wrong, f"{len(wrong)} of {len(golden)} differ: {wrong}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1) + "\n")

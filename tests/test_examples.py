"""Smoke tests: the narrative examples run end to end.

``examples/*.py`` double as user documentation, so they must stay
runnable. Each example's ``main`` is exercised here under a tiny
configuration (small shapes, a two-candidate search space, a handful
of requests) so the whole suite stays fast; the docstring contract
(every example documents what it shows and what it prints) is enforced
both here and in ``tests/test_docs.py``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.tuner import MappingSearchSpace

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_space():
    return MappingSearchSpace(
        tiles=((128, 128),),
        tile_k=(64,),
        warpgroups=(1, 2),
        pipeline_depths=(1,),
        warpspecialize=(False,),
    )


def test_quickstart_runs_tiny(capsys):
    example = _load_example("quickstart")
    example.main(check_shape=(256, 256, 128), sim_sizes=(512,))
    out = capsys.readouterr().out
    assert "max |error| vs numpy" in out
    assert "TFLOP/s" in out


def test_mapping_tuning_runs_tiny(capsys, tiny_space):
    example = _load_example("mapping_tuning")
    example.main(size=512, space=tiny_space, top_k=1)
    out = capsys.readouterr().out
    assert "best mapping" in out
    assert "spearman" in out


def test_transformer_block_runs_tiny(capsys):
    example = _load_example("transformer_block")
    example.main(
        seq=256, d_model=256, heads=2, d_ff=512,
        streams=1, workers=2, repeats=1,
    )
    out = capsys.readouterr().out
    assert "task graph: 7 nodes" in out
    assert "max |error| vs numpy reference" in out
    assert "graphs:" in out  # the stats table's per-graph line


def test_serving_trace_flag_runs_tiny(capsys, tmp_path):
    import json

    from repro.obs import validate_chrome_trace

    example = _load_example("serving")
    out_path = tmp_path / "trace.json"
    example.main(trace_path=str(out_path), requests=10, tune=False)
    out = capsys.readouterr().out
    assert "obs:" in out  # the stats table's tracing line
    assert f"spans to {out_path}" in out
    events = validate_chrome_trace(json.loads(out_path.read_text()))
    assert any(event["name"] == "request" for event in events)
    assert any(event["name"] == "execute" for event in events)


def test_serving_specialize_flag_runs_tiny(capsys):
    example = _load_example("serving")
    example.main(requests=10, tune=False, specialize=True)
    out = capsys.readouterr().out
    assert "specializer promoted 1 shape(s)" in out
    # The hot m=1100 shape moves off its padded m=2048 generic bucket
    # onto the tile-aligned m=1280 kernel, served from memory.
    assert "served from generic bucket m2048xn256xk128" in out
    assert "now served from m1280xn256xk128 [memory]" in out
    assert "specialz.:" in out  # the stats table's specialization line


def test_paper_figures_runs_tiny(capsys):
    example = _load_example("paper_figures")
    example.main(tiny=True)
    out = capsys.readouterr().out
    titles = [
        line for line in out.splitlines() if line.startswith("=== ")
    ]
    assert len(titles) == 8  # Figures 13a-d, 14 and three ablations
    assert titles[0] == "=== Figure 13a: GEMM (TFLOP/s) ==="
    assert "cuBLAS" in out and "FlashAttention3" in out
    assert "% of peak" in out


def test_every_example_documents_its_output():
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        source = path.read_text()
        head = source.split('"""')[1] if '"""' in source else ""
        assert "Expected output" in head, (
            f"{path.name} must document its expected output shape"
        )
        assert "What it demonstrates" in head, (
            f"{path.name} must explain what it demonstrates"
        )

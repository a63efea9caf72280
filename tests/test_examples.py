"""Smoke tests: the narrative examples run end to end.

``examples/*.py`` double as user documentation, so they must stay
runnable. Each example's ``main`` is exercised here under a tiny
configuration (small shapes, a two-candidate search space, a handful
of requests) so the whole suite stays fast; the docstring contract
(every example documents what it shows and what it prints) is enforced
both here and in ``tests/test_docs.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

from repro.tuner import MappingSearchSpace

from exposition import validate_chrome_trace

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TINY_SPACE = MappingSearchSpace(
    tiles=((128, 128),),
    tile_k=(64,),
    warpgroups=(1, 2),
    pipeline_depths=(1,),
    warpspecialize=(False,),
)


def tiny_configurations(tmp_path):
    """Each tiny in-process run below: name -> (example, ``main`` keywords)."""
    return {
        "quickstart": (
            "quickstart", dict(check_shape=(256, 256, 128), sim_sizes=(512,)),
        ),
        "mapping_tuning": (
            "mapping_tuning", dict(size=512, space=TINY_SPACE, top_k=1),
        ),
        "transformer_block": ("transformer_block", dict(
            seq=256, d_model=256, heads=2, d_ff=512,
            streams=1, workers=2, repeats=1,
        )),
        "serving_trace": ("serving", dict(
            trace_path=str(tmp_path / "trace.json"), requests=10, tune=False,
        )),
        "serving_specialize": (
            "serving", dict(requests=10, tune=False, specialize=True),
        ),
        "serving_diag": ("serving", dict(requests=10, tune=False, diag=True)),
        "paper_figures": ("paper_figures", dict(tiny=True)),
    }


def run_tiny(run, tmp_path):
    example, kwargs = tiny_configurations(tmp_path)[run]
    _load_example(example).main(**kwargs)


def test_quickstart_runs_tiny(capsys, tmp_path):
    run_tiny("quickstart", tmp_path)
    out = capsys.readouterr().out
    assert "max |error| vs numpy" in out
    assert "TFLOP/s" in out


def test_mapping_tuning_runs_tiny(capsys, tmp_path):
    run_tiny("mapping_tuning", tmp_path)
    out = capsys.readouterr().out
    assert "best mapping" in out
    assert "spearman" in out


def test_transformer_block_runs_tiny(capsys, tmp_path):
    run_tiny("transformer_block", tmp_path)
    out = capsys.readouterr().out
    assert "task graph: 7 nodes" in out
    assert "max |error| vs numpy reference" in out
    assert "graphs:" in out  # the stats table's per-graph line


def test_serving_trace_flag_runs_tiny(capsys, tmp_path):
    run_tiny("serving_trace", tmp_path)
    out_path = tmp_path / "trace.json"
    out = capsys.readouterr().out
    assert "obs:" in out  # the stats table's tracing line
    assert f"spans to {out_path}" in out
    events = validate_chrome_trace(json.loads(out_path.read_text()))
    assert any(event["name"] == "request" for event in events)
    assert any(event["name"] == "execute" for event in events)


def test_serving_specialize_flag_runs_tiny(capsys, tmp_path):
    run_tiny("serving_specialize", tmp_path)
    out = capsys.readouterr().out
    assert "specializer promoted 1 shape(s)" in out
    # The hot m=1100 shape moves off its padded m=2048 generic bucket
    # onto the tile-aligned m=1280 kernel, served from memory.
    assert "served from generic bucket m2048xn256xk128" in out
    assert "now served from m1280xn256xk128 [memory]" in out
    assert "specialz.:" in out  # the stats table's specialization line


def test_serving_diag_flag_runs_tiny(capsys, tmp_path):
    from repro.obs.ops import ENDPOINTS

    run_tiny("serving_diag", tmp_path)
    out = capsys.readouterr().out
    assert "--- live ops plane (--diag) on 127.0.0.1:" in out
    for path in ENDPOINTS:
        assert f"GET {path:<10} 200" in out


def test_paper_figures_runs_tiny(capsys, tmp_path):
    run_tiny("paper_figures", tmp_path)
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

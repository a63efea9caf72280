"""Tests of the benchmark harness itself, driven through ``--smoke``.

The smoke run uses tiny op counts but the same code paths, checks and
result schema as a full run, so what holds here holds there. Three
subprocess runs are shared by the whole module (about 50 s together).
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import compare, schema, stats, traffic

ROOT = Path(__file__).resolve().parents[2]
SEED = 5


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def smoke(out_dir):
    """All five workloads, untraced then traced."""
    path = out_dir / "a.json"
    done = bench("--smoke", "--seed", str(SEED), "--trace", "--out", str(path))
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(path.read_text()), done


@pytest.fixture(scope="module")
def smoke_again(out_dir):
    """The two workloads that own the exact counts, a second time."""
    path = out_dir / "b.json"
    done = bench(
        "--smoke", "--seed", str(SEED), "--trace", "--out", str(path),
        "--workload", "cold_compile", "--workload", "shift_serve",
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# Pure helpers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(q):
    rng = np.random.default_rng(q)
    for size in (1, 2, 7, 100):
        values = rng.random(size).tolist()
        assert stats.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)), rel=1e-12
        )


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_spread_is_the_drivers_spread():
    values = [10.0, 11.0, 12.5, 9.0, 10.5, 30.0]
    first, _, third = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (third - first) / statistics.median(values)
    )
    assert stats.spread([3.0]) == 0.0


def test_geomean_ignores_order_to_the_last_digit():
    values = [0.1 * k + 1.7 for k in range(1, 60)]
    assert stats.geomean(values) == stats.geomean(values[::-1])
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)


def test_spearman():
    assert stats.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert stats.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert stats.spearman([1, 2, 3], [5, 5, 5]) == 0.0


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", traffic.WORKLOAD_NAMES)
def test_same_seed_gives_a_byte_identical_op_list(workload):
    ops, info = traffic.op_list(workload, 3, smoke=True)
    again, info_again = traffic.op_list(workload, 3, smoke=True)
    assert json.dumps(ops, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert info == info_again
    assert traffic.digest(ops) == traffic.digest(again)
    other, _ = traffic.op_list(workload, 4, smoke=True)
    assert traffic.digest(other) != traffic.digest(ops)
    assert [op["id"] for op in ops] == list(range(len(ops)))


def test_full_rounds_have_the_documented_sizes():
    sizes = {
        name: len(traffic.op_list(name, 0)[0])
        for name in traffic.WORKLOAD_NAMES
    }
    assert sizes == {
        "cold_compile": 96, "warm_serve": 400, "functional_serve": 20,
        "shift_serve": 180, "graph_replay": 150,
    }


def test_the_seed_does_not_change_a_rounds_family_mix():
    def mix(workload, seed):
        ops, _ = traffic.op_list(workload, seed)
        return sorted(op.get("family", op["key"]) for op in ops)

    for workload in traffic.WORKLOAD_NAMES:
        assert mix(workload, 1) == mix(workload, 2)


# ----------------------------------------------------------------------
# Catalogue and schema
# ----------------------------------------------------------------------
def test_benchmark_json_repeats_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == schema.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(schema.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(schema.PER_LAYER)
    assert len(schema.PER_LAYER) == 67
    assert max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_smoke_result_validates_and_is_complete(smoke):
    result, done = smoke
    assert schema.validate(result) == []
    assert set(result["workloads"]) == set(schema.WORKLOADS)
    for field in schema.HEADER_FIELDS:
        assert field in result["header"]
    assert result["header"]["seed"] == SEED
    for name, body in result["workloads"].items():
        assert body["failed"] == 0 and body["correct"], (name, body["failures"])
        assert body["attempted"] >= 1
        assert (ROOT / body["trace_file"]).is_file()
        spans = json.loads((ROOT / body["trace_file"]).read_text())["spans"]
        assert spans and {"name", "start_s", "end_s", "parent", "op"} <= set(spans[0])
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert len(last["metrics"]) == 5 * (len(schema.END_TO_END) + 67)


def test_warm_workloads_ran_zero_passes(smoke):
    result, _ = smoke
    for name in ("warm_serve", "functional_serve", "graph_replay"):
        body = result["workloads"][name]
        assert body["violations"] == []
        assert body["per_layer"]["compiler.dependence.calls"]["value"] == 0
        assert body["per_layer"]["runtime.server.tier_compile"]["value"] == 0


def test_validate_names_what_is_wrong(smoke):
    result, _ = smoke
    broken = json.loads(json.dumps(result))
    del broken["workloads"]["warm_serve"]["end_to_end"]["op_ms_p50"]
    broken["workloads"]["cold_compile"]["per_layer"]["ir.clone_ms"]["unit"] = "s"
    broken["header"]["schema_version"] = 0
    errors = "\n".join(schema.validate(broken))
    assert "op_ms_p50" in errors
    assert "ir.clone_ms" in errors
    assert "schema_version" in errors
    assert schema.validate([]) == ["result: not an object"]


def test_exact_metrics_repeat_exactly(smoke, smoke_again):
    first, _ = smoke
    for name, body in smoke_again["workloads"].items():
        before = first["workloads"][name]
        assert body["ops_digest"] == before["ops_digest"]
        for metric in schema.EXACT_END_TO_END:
            assert (
                body["end_to_end"][metric]["value"]
                == before["end_to_end"][metric]["value"]
            ), (name, metric)
        for metric in schema.EXACT_PER_LAYER:
            assert (
                body["per_layer"][metric]["value"]
                == before["per_layer"][metric]["value"]
            ), (name, metric)


# ----------------------------------------------------------------------
# Failure accounting, compare, and the empty checkout
# ----------------------------------------------------------------------
def test_a_wrong_reference_is_a_failed_op_and_a_nonzero_exit(out_dir):
    path = out_dir / "wrong.json"
    done = bench(
        "--smoke", "--seed", str(SEED), "--workload", "warm_serve",
        "--inject-wrong-reference", "--out", str(path),
    )
    assert done.returncode == 1
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    body = json.loads(path.read_text())["workloads"]["warm_serve"]
    # One op per round is judged against the wrong reference.
    assert body["failed"] == body["rounds"] == last["failed"]
    assert body["failures"]
    # A failed op contributes no latency sample.
    assert body["end_to_end"]["op_ms_p50"]["n"] == body["attempted"] - body["failed"]


def test_compare_of_a_run_with_itself(smoke, out_dir, capsys):
    path = str(out_dir / "a.json")
    assert compare.main([path, path]) == 0
    table = capsys.readouterr().out
    assert "identical" in table and "regressed" not in table
    assert table.count("sim_tflops_geomean") == 5


def test_judge_says_unresolved_not_unchanged_when_runs_are_noisy():
    quiet = compare.judge([10, 10.1, 9.9], [10.2, 10.1, 10.3], 0.02, "lower", 0.10)
    assert quiet[0] == "unchanged"
    noisy = compare.judge([10, 13, 8], [10.2, 12, 9], 0.30, "lower", 0.10)
    assert noisy[0] == "unresolved"
    worse = compare.judge([10, 10.1, 9.9], [12, 12.1, 11.9], 0.02, "lower", 0.10)
    assert worse[0] == "regressed" and worse[1] == pytest.approx(1.2)
    # Noisy, but every new run beats every base run: still a verdict.
    clear = compare.judge([10, 13, 11], [7, 6, 7.5], 0.30, "lower", 0.10)
    assert clear[0] == "improved"
    higher = compare.judge([100, 101], [80, 81], 0.01, "higher", 0.10)
    assert higher[0] == "regressed"


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench(
        "--workload", "warm_serve", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

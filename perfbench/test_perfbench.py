"""Self-tests of the benchmark itself: python3 -m pytest perfbench -q

They check that the answer checks catch a wrong reference, that the seed
moves only the seeded inputs, that the median answer latency does not sit
in a gap between answer clusters, and that the output matches the metric
list in BENCHMARK.json.  About a minute on one core.
"""

import json
import shutil
import subprocess
from fractions import Fraction

import pytest

import run

run.load_riderflow()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def passes():
    """One plain pass per workload, outputs kept: name -> (workload, pass)."""
    out = {}
    for name in run.WORKLOADS:
        workload = workloads.build(name, 1)
        out[name] = workload, run.run_pass(workload, run.HostClock(), keep=True)
    return out


def failed_frac(workload, result):
    times, marks, outputs, raised = result
    tally = run.Tally(workload, outputs, raised)
    return tally.failed / tally.attempted


def test_every_workload_passes_its_checks(passes):
    for workload, result in passes.values():
        assert failed_frac(workload, result) == 0, workload.name


def test_wrong_denominator_table_is_caught(passes, monkeypatch):
    monkeypatch.setitem(checks.ACCEPTANCE_TABLE, "INC", (1, 2, 13, 24, 48))
    assert failed_frac(*passes["denominators"]) > 0


def test_wrong_bishop_period_is_caught(passes, monkeypatch):
    monkeypatch.setattr(checks, "BISHOP_PERIODS", {2: 1, 3: 1})
    assert failed_frac(*passes["periods"]) > 0


def test_wrong_cli_golden_is_caught(passes, monkeypatch, tmp_path):
    golden = json.loads(workloads.CLI_GOLDEN.read_text())
    golden[0]["sha256"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(workloads, "CLI_GOLDEN", path)
    workload = workloads.build("cli", 1)
    assert failed_frac(workload, passes["cli"][1]) > 0


def test_wrong_orbit_prefix_is_caught():
    corners = workloads.SQUARE_CORNERS
    moves = workloads.INC
    start = (Fraction(1, 3), Fraction(0))
    prefix, ended = checks.bounce_prefix(corners, moves, start, 1, 12)
    assert not ended and len(prefix) == 12
    traced = workloads.rf.trace(
        workloads._board(corners), workloads._moves(moves),
        workloads.rf.Point2(*start), 1, max_points=40,
    )
    points = [(p.x, p.y) for p in traced.points]
    assert checks.orbit_errors(corners, moves, 1, points, prefix) == []
    wrong = list(prefix)
    wrong[5] = (wrong[5][0] + Fraction(1, 1000), wrong[5][1])
    assert checks.orbit_errors(corners, moves, 1, points, wrong)


def test_seed_changes_only_the_seeded_inputs():
    one = {name: workloads.build(name, 1).inputs for name in run.WORKLOADS}
    two = {name: workloads.build(name, 2).inputs for name in run.WORKLOADS}
    assert one["orbits"] != two["orbits"]
    assert one["denominators"] != two["denominators"]
    assert one["periods"] == two["periods"]
    assert one["cli"] == two["cli"]
    # orbits: same boards and move pairs in the same slots, other starts
    slots = [[(b, c, m) for b, c, m, *_ in run_inputs] for run_inputs in
             (one["orbits"], two["orbits"])]
    assert slots[0] == slots[1]
    # denominators: the fixed list is shared, only the sampled pairs differ
    fixed = [i for i in one["denominators"]
             if i[1] in (workloads.INC, workloads.ORTH)]
    assert fixed == [i for i in two["denominators"]
                     if i[1] in (workloads.INC, workloads.ORTH)]
    assert len(one["denominators"]) == len(two["denominators"])


@pytest.mark.parametrize("name", ["orbits", "periods"])
def test_median_latency_is_not_in_a_cluster_gap(passes, name):
    workload, (times, *_) = passes[name]
    latencies = sorted(t for t, step in zip(times, workload.steps) if step.answer)
    n = len(latencies)
    window = latencies[int(0.4 * n): int(0.6 * n) + 1]
    jumps = [b / a for a, b in zip(window, window[1:])]
    assert max(jumps) < 1.5, window


def test_orbit_mix_keeps_the_median_among_long_orbits():
    inputs = workloads.orbit_inputs(1)
    shorts = sum(1 for item in inputs if not item[5])
    assert shorts < 0.4 * len(inputs)


def test_tracing_rebinds_names_imported_by_other_modules():
    import riderflow.arrangement as arrangement
    import riderflow.counting as counting

    original = counting.denominator
    board = workloads.rf.Board.square()
    moves = workloads._moves(workloads.ORTH)
    store = spans.Spans()
    with spans.traced(store):
        assert counting.denominator is not original
        assert arrangement.trace is workloads.rf.trace
        workloads.rf.denominator(board, moves, 3)
    assert counting.denominator is original
    summary = store.summary()
    assert summary["denominator.denominator"]["calls"] == 1
    assert summary["dynamics.trace"]["calls"] > 0
    assert summary["geometry.Edge.side_of"]["calls"] > 0
    total = sum(row["self_s"] for row in summary.values())
    root = summary["denominator.denominator"]["s"]
    assert total == pytest.approx(root)


def _result(args, capsys):
    assert run.main(args) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_output_names_every_metric_in_benchmark_json(capsys):
    plain = _result(["--workload", "cli", "--seconds", "0"], capsys)
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    traced = _result(["--workload", "cli", "--seconds", "0", "--trace", "1"], capsys)
    assert traced["correct"]
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in plain["metrics"].items()} == units


def test_fails_without_the_program(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

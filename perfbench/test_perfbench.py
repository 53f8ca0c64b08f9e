"""Tests of the benchmark itself (outside the tier-1 suite):

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout()
SPEC = run.declared()
COUNTS = ("sim.cycles", "sim.events.count", "sim.core.tile_steps")


def _invoke(workload: str, trace: int, cwd: Path = run.ROOT,
            script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_quick_mode_prints_every_declared_metric_with_unit(trace, kind):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        proc = _invoke(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: metric["unit"] for name, metric
                in result["metrics"].items()} == declared
        table = {line.split()[0]: line.split()[-1] for line in lines[:-1]
                 if line.split()}
        for name, unit in declared.items():
            assert table.get(name) == unit, (workload, name)
        assert table.get("fail_ratio") is not None


def test_wrong_pin_drives_fail_ratio_above_zero(capsys):
    pins = json.loads((HERE / "pins.json").read_text())
    label = sorted(pins["parboil-ooo"]["quick"])[0]
    pins["parboil-ooo"]["quick"][label] = "0" * 16
    result = run.run("parboil-ooo", 0, 0.1, False, quick=True, pins=pins)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert f"FAIL parboil-ooo/{label}" in capsys.readouterr().out


def test_exact_counts_identical_across_runs():
    counts = []
    for _ in range(2):
        result = run.run("hetero-soc", 5, 0.1, True, quick=True)
        assert result["correct"]
        counts.append({name: result["metrics"][name]["value"]
                       for name in COUNTS})
    assert counts[0] == counts[1]
    assert all(value > 0 for value in counts[0].values())


def test_fails_without_simulator_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _invoke("parboil-ooo", 0, cwd=tmp_path,
                   script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_clock_scales_stretches_and_skips_calibrations():
    from hostspeed import REFERENCE_S, HostClock
    clock = HostClock()
    # calibrations at [0, 1] (loop at reference speed) and [3, 4] (loop
    # twice as slow): the stretch [1, 3] is scaled by 2 / (1 + 2)
    clock.starts, clock.ends = [0.0, 3.0], [1.0, 4.0]
    clock.loops = [REFERENCE_S, 2 * REFERENCE_S]
    assert clock.seconds(1.0, 3.0) == pytest.approx(2.0 * 2 / 3)
    assert clock.seconds(0.0, 4.0) == pytest.approx(2.0 * 2 / 3)
    assert clock.seconds(2.0, 5.0) == pytest.approx(1.0 * 2 / 3 + 0.5)
    assert clock.seconds(-1.0, 0.5) == pytest.approx(1.0)

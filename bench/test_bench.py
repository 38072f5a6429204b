"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_a_nested_span_tree():
    # root [0, 10]
    #   a [1, 4]         a1 [2, 3]
    #   b [5, 9]         b1 [5, 6], b2 [5.5, 7] overlap: their union counts once
    #   c [9.5, 12]      reaches past root: only [9.5, 10] counts for root
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 5.5, 9.5]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 7.0, 12.0]
    parent = [-1, 0, 1, 0, 3, 3, 0]
    own = spans.self_times(start, end, parent)
    assert own == pytest.approx([10 - 3 - 4 - 0.5, 3 - 1, 1, 4 - 2, 1, 1.5, 2.5])


def _fake_package(monkeypatch):
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return 2 * home.leaf(x)

    class Table:
        def at(self, p):
            return leaf(p)

    home.leaf, home.outer, home.Table = leaf, outer, Table
    user.leaf = leaf  # imported by name, as report imports the analysis functions
    monkeypatch.setitem(sys.modules, "fakepkg.home", home)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    return home, user, Table


def test_recorder_patches_every_lookup_site_and_restores(monkeypatch):
    home, user, Table = _fake_package(monkeypatch)
    leaf, outer, at = home.leaf, home.outer, Table.at
    rec = spans.Recorder()
    layers = [(home, "leaf", "home.leaf", None), (home, "outer", "home.outer", None),
              (Table, "at", "home.table", None)]
    with rec.installed(layers, "fakepkg"):
        assert user.leaf is home.leaf is not leaf
        assert home.outer(1) == 4
        assert user.leaf(1) == 2
        assert Table().at(1) == 2
    assert (home.leaf, user.leaf, home.outer, Table.at) == (leaf, leaf, outer, at)
    summary = rec.summary()
    assert {name: row["calls"] for name, row in summary.items()} == {
        "home.leaf": 2, "home.outer": 1, "home.table": 1}
    first_leaf = list(rec.name).index(rec.names.index("home.leaf"))
    assert rec.names[rec.name[rec.parent[first_leaf]]] == "home.outer"


def test_recorder_fails_loudly_on_a_missing_function(monkeypatch):
    home, user, _ = _fake_package(monkeypatch)
    leaf = home.leaf
    rec = spans.Recorder()
    with pytest.raises(spans.MissingLayer, match="fakepkg.home.gone"):
        rec.install([(home, "leaf", "home.leaf", None), (home, "gone", "home.gone", None)],
                    "fakepkg")
    assert home.leaf is leaf and user.leaf is leaf


def test_inputs_come_from_the_seed_alone():
    for name in workloads.SIZES:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)
    lo, hi = workloads.SCAN_DOMAIN
    for p in workloads.generate("scan", 7)["points"]:
        assert all(lo + workloads.SCAN_REACH <= v <= hi - workloads.SCAN_REACH for v in p)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_named_metric_with_its_unit(workload, trace):
    result, lines = run.measure(workload, seed=5, seconds=0, trace=bool(trace),
                                size=workloads.TINY[workload])
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    shown = "\n".join(lines)
    for name in ("setup_s", "wall_s", "points_per_s", "peak_rss_mb", "margin_decades",
                 "failed_frac"):
        assert name in shown


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "suite", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

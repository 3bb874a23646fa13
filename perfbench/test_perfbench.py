"""Tests of the benchmark itself (not collected by the repository's own
test run, whose testpaths is tests/):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# every end-to-end metric the report names, with or without a bound
REPORTED = ("items_per_s", "item_ms.p50", "item_ms.p90", "failed_frac",
            "items_per_s.cal", "item_ms.p50.cal", "setup_s", "setup_s.raw",
            "peak_rss_mb")
CLASSES = (workloads.Rank2Cells, workloads.PacketCalculus,
           workloads.ChartsTransfer, workloads.CliQueries)


@pytest.fixture
def tiny(monkeypatch):
    """One warm-up cycle and one traced cycle per workload."""
    for cls in CLASSES:
        monkeypatch.setattr(cls, "prefix_cycles", 1)
        monkeypatch.setattr(cls, "trace_cycles", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def bench(capsys, *argv):
    code = run.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spec_names_the_workloads_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", run.NAMES)
def test_smoke_every_metric_is_emitted(tiny, capsys, name):
    code, out, _ = bench(capsys, "--workload", name, "--seed", "3",
                         "--seconds", "0.01", "--trace", "0")
    assert code == 0
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    for metric in REPORTED:
        assert f"  {metric} " in out, metric

    code, out, _ = bench(capsys, "--workload", name, "--seed", "3",
                         "--seconds", "0.01", "--trace", "1")
    assert code == 0
    last = json.loads(out.strip().splitlines()[-1])
    assert list(last["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    # the layers account for the traced item time but the benchmark's share
    assert layer_sum + metrics["trace.bench_s"] == pytest.approx(
        metrics["trace.item_s"])
    assert metrics["trace.bench_s"] < 0.25 * metrics["trace.item_s"]
    assert 0 < metrics["trace.overhead"] < 1


def test_cli_queries_refusal_share_is_fixed(tiny, capsys):
    code, out, _ = bench(capsys, "--workload", "cli-queries", "--seed", "4",
                         "--seconds", "0.01", "--trace", "0")
    assert code == 0
    report = json.load(open(os.path.join(
        run.RESULTS, "cli-queries-seed4-trace0.json"), encoding="utf-8"))
    share = dict(workloads.CliQueries.MIX)["oi-rs-over-budget"] / sum(
        n for _, n in workloads.CliQueries.MIX)
    assert report["metrics"]["failed_frac"]["value"] == share
    assert report["items"]["failed"] == 0


def test_digest_repeats_for_a_seed(tiny, capsys):
    digests = []
    for _ in range(2):
        code, out, _ = bench(capsys, "--workload", "charts-transfer",
                             "--seed", "5", "--seconds", "0.01")
        assert code == 0
        digests.append([ln for ln in out.splitlines() if "digest" in ln])
    assert digests[0] == digests[1] and digests[0]


ORIGINAL = {"invariants_of": workloads.invariants_of,
            "riemann_fourier": workloads.riemann_fourier}


def _wrong_invariants(R, X):
    a, b = ORIGINAL["invariants_of"](R, X)
    return a, (b[0] + R.one(),) + tuple(b[1:])


def _wrong_riemann(f, w):
    return ORIGINAL["riemann_fourier"](f, w) + 1


@pytest.mark.parametrize("name, attr, fake", [
    ("charts-transfer", "invariants_of", _wrong_invariants),
    ("packet-calculus", "riemann_fourier", _wrong_riemann),
])
def test_wrong_result_trips_the_gate(tiny, capsys, monkeypatch, name, attr,
                                     fake):
    monkeypatch.setattr(workloads, attr, fake)
    code, out, err = bench(capsys, "--workload", name, "--seed", "6",
                           "--seconds", "0.01")
    assert code == 1
    assert "correctness gate failed" in err
    assert f"workload={name}" in err and "seed=6" in err and "item #0" in err
    assert "correct" not in out


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank2-cells",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.xfail(strict=True, reason="riemann_fourier builds lattice offsets "
                   "as p ** a, a float for a < 0")
def test_riemann_oracle_on_a_wide_lattice():
    """Why packet-calculus gives riemann_fourier only exponents >= 0.  When
    this passes, the library is fixed: widen that packet to exponent -1."""
    from fractions import Fraction

    from padharm.characters import AdditiveCharacter
    from padharm.padic import FieldContext
    from padharm.spaces import WavePacket, f_space, riemann_fourier

    F = FieldContext(3, 4)
    f = WavePacket.indicator(f_space(F, AdditiveCharacter(F, 0), 1), -1)
    w = (Fraction(1, 3),)
    assert (riemann_fourier(f, w) - f.fourier().evaluate(w)).is_zero()

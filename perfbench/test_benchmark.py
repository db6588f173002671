"""Self-tests of the benchmark.  Not part of the tier-1 suite (which
collects ``tests/`` only); run them by path::

    python -m pytest -q perfbench/test_benchmark.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for p in (ROOT / "src", ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from perfbench import bench, layers, report, runner, workloads  # noqa: E402
from repro.pfs import datasource  # noqa: E402

SPEC = report.load_spec()
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _run(name: str, tmp_path: Path) -> runner.Run:
    return runner.Run(workloads.build(name, seed=3, smoke=True), tmp_path)


def _units(res) -> dict:
    return {k: m["unit"] for k, m in res["metrics"].items()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_metric(name, tmp_path):
    res = runner.measure(_run(name, tmp_path), seconds=0, min_passes=1)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    # setup_s is added by the parent from separate interpreters.
    assert _units(res) == {k: u for k, u in END_TO_END.items()
                           if k != "setup_s"}
    assert all(m["value"] > 0 for m in res["metrics"].values())

    traced = runner.trace(_run(name, tmp_path), seconds=0,
                          src_root=ROOT / "src")
    assert traced["correct"] and traced["failed"] == 0
    assert _units(traced) == PER_LAYER
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    # Layer self times plus other.self_s account for the traced wall.
    assert abs(values["trace.unattributed_frac"]) < 0.05
    assert values["sim.runs"] == len(workloads.build(name, 3, True).jobs)
    if name == "ingest":
        # The cache is smaller than the file: the profiled serial pass
        # generates every block once per pipeline, or more.
        [read, _] = workloads.build(name, 3, True).jobs[:2]
        blocks = -(-read.workload.dspec.n_elements
                   // datasource.DEFAULT_BLOCK_ELEMENTS)
        assert values["pfs.blocks_generated"] >= 2 * blocks


def test_probed_pass_is_rescaled_by_the_host_probe(tmp_path, monkeypatch):
    assert runner.probe() > 0
    # A host whose probes take twice the nominal time is half as fast.
    monkeypatch.setattr(runner, "probe", lambda: 2 * runner.PROBE_NOMINAL_S)
    run = _run("integrity", tmp_path)
    wall, nominal, probes = run.probed_serial()
    assert nominal == pytest.approx(wall / 2)
    assert len(probes) >= 2
    assert run.check() == (len(run.wl.jobs), 0)


def test_unit_tables_match_spec():
    assert set(layers.UNITS) == set(PER_LAYER)
    assert layers.UNITS == PER_LAYER
    assert bench.workload_names() == list(workloads.NAMES)
    assert bench._parser().parse_args([]).seconds == SPEC["run_seconds"]


def test_every_layer_metric_has_a_moves_entry():
    moves = json.loads((ROOT / "perfbench" / "moves.json").read_text())
    assert set(moves) == set(PER_LAYER)
    for entry in moves.values():
        assert set(entry["moves"]) <= set(END_TO_END)
        assert set(entry["on"]) | set(entry["little_on"]) <= set(workloads.NAMES)


def test_seeds_change_answers_not_work(tmp_path):
    rows = []
    for seed in (0, 5):
        run = runner.Run(workloads.build("many-ranks", seed, smoke=True),
                         tmp_path)
        run.serial()
        rows.append([o.row for o in run.first_outcomes()])
    jobs = workloads.build("many-ranks", 0, smoke=True).jobs
    assert {type(j) for j in jobs} == {workloads.ObjectIOJob,
                                       workloads.FigureJob}
    for job, a, b in zip(jobs, *rows):
        assert a[:3] == b[:3]  # label, simulated seconds, wire bytes
        if isinstance(job, workloads.FigureJob):
            assert a[3] == b[3]  # the figure's own data at every seed
        else:
            assert a[3] != b[3]  # the answer


def test_seed_zero_figure11_jobs_reproduce_the_figure():
    # Figures 14-16 run their own run_point; Figure 10 is checked
    # against BENCH_paper.json on every seed-0 run.
    from repro.experiments import fig11_overhead

    rows = {job.label: job.run(False).row
            for job in workloads.build("many-ranks", 0, smoke=True).jobs}
    _, cc_time = fig11_overhead.run_point(128, 12.0)
    assert rows["P=128/cc-12"][1] == cc_time


def test_wrong_reference_fails_every_job(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "reference", lambda job, memo: "wrong")
    res = runner.measure(_run("ingest", tmp_path), seconds=0, min_passes=1)
    assert res["attempted"] > 0
    assert res["failed"] == res["attempted"]  # failed fraction 1
    assert not res["correct"]
    assert bench.exit_status({"ingest": res}) == 1


def test_command_line_run(tmp_path):
    out = tmp_path / "run.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "bench.py"),
         "--workload", "weak-scaling", "--seed", "0", "--seconds", "0",
         "--trace", "0", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert {k: m["unit"] for k, m in last["metrics"].items()} == END_TO_END
    metrics = json.loads(out.read_text())["workloads"]["weak-scaling"]["metrics"]
    assert metrics["setup_s"]["n"] == bench.SETUP_PROBES + 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- --compare on synthetic run files ---------------------------------------

def _write_runs(tmp_path: Path, tag: str, walls, failed=0, sim_cc=1.0,
                seed=0) -> list:
    files = []
    for i, wall in enumerate(walls):
        metrics = {m: {"value": 1.0, "unit": u, "q1": 1.0, "q3": 1.0, "n": 1}
                   for m, u in END_TO_END.items()}
        metrics["wall_s"]["value"] = wall
        metrics["sim_cc_s"]["value"] = sim_cc
        f = tmp_path / f"{tag}-{i}.json"
        f.write_text(json.dumps({
            "seed": seed + i, "seconds": SPEC["run_seconds"], "trace": 0,
            "workloads": {"weak-scaling": {
                "correct": not failed, "attempted": 10, "failed": failed,
                "metrics": metrics}}}))
        files.append(f)
    return files


def _compare(tmp_path, parent, change, **kw):
    p = _write_runs(tmp_path, "parent", parent)
    c = _write_runs(tmp_path, "change", change, **kw)
    lines, regressed = report.compare(p, c, SPEC)
    verdicts = {ln.split()[1]: ln.split()[-1] for ln in lines[1:]}
    return verdicts, regressed


PARENT = [2.00, 2.02, 1.98, 2.01, 1.99, 2.00, 2.03, 1.97, 2.01, 1.99]


def test_compare_clear_win(tmp_path):
    verdicts, regressed = _compare(tmp_path, PARENT,
                                   [w * 0.8 for w in PARENT])
    assert verdicts["wall_s"] == "gain" and not regressed


def test_compare_noisy_tie_is_unresolved(tmp_path):
    noisy = [1.5, 2.5, 1.6, 2.4, 1.7, 2.3, 2.0, 2.1, 1.8, 2.2]
    verdicts, regressed = _compare(tmp_path, PARENT, noisy)
    assert verdicts["wall_s"] == "unresolved" and not regressed


def test_compare_slower_change_regresses(tmp_path):
    verdicts, regressed = _compare(tmp_path, PARENT,
                                   [w * 1.3 for w in PARENT])
    assert verdicts["wall_s"] == "regression" and regressed


def test_compare_simulated_metrics_are_exact(tmp_path):
    verdicts, regressed = _compare(tmp_path, PARENT, PARENT, sim_cc=1.005)
    assert verdicts["sim_cc_s"] == "regression" and regressed
    assert verdicts["wall_s"] == "same"
    verdicts, regressed = _compare(tmp_path, PARENT, PARENT, sim_cc=0.99)
    assert verdicts["sim_cc_s"] == "gain" and not regressed


def test_compare_more_failures_regress(tmp_path):
    verdicts, regressed = _compare(tmp_path, PARENT, PARENT, failed=1)
    assert set(verdicts.values()) == {"regression"} and regressed


def test_compare_needs_ten_pairs(tmp_path):
    few = PARENT[:9]
    verdicts, regressed = _compare(tmp_path, few, [w * 0.5 for w in few])
    assert set(verdicts.values()) == {"unresolved"} and not regressed
    # A rise in failures is a regression however few the pairs.
    verdicts, regressed = _compare(tmp_path, few[:1], few[:1], failed=1)
    assert verdicts["wall_s"] == "regression" and regressed


def test_compare_rejects_unpaired_run_files(tmp_path):
    p = _write_runs(tmp_path, "parent", PARENT)
    with pytest.raises(ValueError, match="10 parent run files but 9"):
        report.compare(p, _write_runs(tmp_path, "change", PARENT[:9]), SPEC)
    with pytest.raises(ValueError, match="differ in seed"):
        report.compare(p, _write_runs(tmp_path, "change", PARENT, seed=1),
                       SPEC)


def test_compare_cli_exit_status(tmp_path, capsys):
    p = _write_runs(tmp_path, "parent", PARENT)
    c = _write_runs(tmp_path, "change", [w * 1.3 for w in PARENT])
    assert bench.main(["--compare", *map(str, p), "--", *map(str, c)]) == 1
    assert bench.main(["--compare", *map(str, p), "--", *map(str, p)]) == 0
    with pytest.raises(SystemExit) as exc:
        bench.main(["--compare", *map(str, p), "--", *map(str, c[:9])])
    assert exc.value.code == 2

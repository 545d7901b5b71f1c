"""Self-test of the benchmark's span wrapper.

    python3 -m pytest perfbench -q

A later refactor that re-binds a name (or moves a function) must not
silently zero a layer: on each workload, every layer predicted to run
records calls, and the layers predicted idle record none.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

SHARED = {
    "cyclotomic.pi_valuation",
    "cyclotomic.CycInt.mul",
    tracing.ZECH,
    tracing.HORNER,
    "fields.build_field",
    "fields.embed",
    "lfunction.trace_counts",
    "lfunction.l_polynomial",
    "lfunction.newton_polygon",
    "polygons",
    "dickson.find_dickson_factor",
    "dickson.is_admissible",
}
SCAN_ONLY = {"scan.scan_record", "scan.validate_record", "scan.serialize"}
CROSSCHECK_ONLY = {
    "kernels.find_first_root",
    "curvezeta.p1_polynomial",
    "curvezeta.product_formula_check",
    "curvezeta.slope_length_relation_check",
}
EXERCISED = {
    "scan-x3": SHARED | SCAN_ONLY,
    "scan-d5": SHARED | SCAN_ONLY,
    "crosscheck-batch": SHARED | CROSSCHECK_ONLY,
}


def test_install_rebinds_every_name_and_uninstall_restores():
    cli = importlib.import_module("npscan.cli")
    cyclotomic = importlib.import_module("npscan.cyclotomic")
    lfunction = importlib.import_module("npscan.lfunction")
    curvezeta = importlib.import_module("npscan.curvezeta")
    original = lfunction.l_polynomial
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.l_polynomial is curvezeta.l_polynomial is lfunction.l_polynomial
        assert lfunction.l_polynomial is not original
        assert lfunction.pi_valuation is cyclotomic.pi_valuation
        assert cyclotomic.CycInt.__rmul__ is cyclotomic.CycInt.__mul__
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["np", "x^3", "7"]) == 0
    finally:
        tracer.uninstall()
    assert lfunction.l_polynomial is original is cli.l_polynomial
    spans = tracer.totals()["spans"]
    assert spans.get("cyclotomic.pi_valuation", {}).get("calls", 0) > 0
    # self time excludes the child spans; total time includes them
    l_poly = spans["lfunction.l_polynomial"]
    assert l_poly["calls"] == 1
    assert 0 < l_poly["self_s"] < l_poly["s"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_predicted_layers_run_on_each_workload(name):
    argvs = workloads.argvs(name, seed=1)
    report = run.spawn(argvs, trace=True)
    checker = workloads.Checker(name)
    for argv, call in zip(argvs, report["calls"]):
        _, failed, problems = checker.check(argv, call)
        assert failed == 0 and not problems, problems
    spans = report["layers"]["spans"]
    calls = {key: spans.get(key, {}).get("calls", 0) for key in set().union(*EXERCISED.values())}
    idle = {key for key, n in calls.items() if n == 0}
    assert idle == set(calls) - EXERCISED[name]
    hit_ratio = tracing.layer_metrics(report["layers"])["lfunction.histogram_cache.hit_ratio"][0]
    if name.startswith("scan-"):
        assert hit_ratio == 0
    else:
        assert hit_ratio > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = set(tracing.layer_metrics({
        "spans": {}, "elements": 0, "zech_fields": 0, "caches": {}
    })) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "scan-x3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

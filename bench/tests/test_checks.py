"""The benchmark's own tests: each check passes a true report and fails a
corrupted one; the tracer counts calls made through imported names.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from finitude.cli import main  # noqa: E402


def report(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["--json", *argv])
    return json.loads(buffer.getvalue()), code


def check(request, data, code=0):
    return checks.check_report(request, json.dumps(data), code, None)


def curve_request(expr, *flags):
    return workloads._curve_request(expr, list(flags))


@pytest.fixture(scope="module")
def cubic():
    request = curve_request("y^3-x^2-1", "--tower", "--k", "4")
    data, _code = report(request["argv"])
    return request, data


def test_algebraic_true_report_passes(cubic):
    request, data = cubic
    assert check(request, data) is None


@pytest.mark.parametrize("corrupt", [
    lambda d: d["monodromy"].update(group_order=6),
    lambda d: d["radicals"].update(status="NotRepresentable"),
    lambda d: d["k_radicals"].update(status="NotRepresentable"),
    lambda d: d["monodromy"]["generators"].__setitem__(0, "(1 2)"),
    lambda d: d["monodromy"]["singular_points"].__setitem__(0, [0.5, 0.5]),
    lambda d: d["radicals"].update(
        certificate=d["radicals"]["certificate"] + "+1/10^30"),
])
def test_algebraic_corrupted_report_fails(cubic, corrupt):
    request, data = cubic
    data = copy.deepcopy(data)
    corrupt(data)
    assert check(request, data) is not None


def test_dihedral_tower_marked_exact_fails():
    request = curve_request(workloads.CHEBYSHEV_5, "--tower")
    data, _code = report(request["argv"])
    assert data["radicals"]["certificate_exact"] is True
    assert "certificate" in check(request, data)


@pytest.fixture(scope="module", params=["1/(x^2+1)", "(x+2)/(x^3+x+1)"])
def integral(request):
    text = request.param
    req = {"argv": ["integrate", "--", text], "kind": "integrate",
           "meta": {"expr": text}}
    data, _code = report(req["argv"])
    return req, data


def test_integrate_true_report_passes(integral):
    request, data = integral
    assert check(request, data) is None


@pytest.mark.parametrize("corrupt", [
    lambda d: d.update(derivative_verified=False),
    lambda d: d["liouville_form"].update(r0="x"),
    lambda d: d["liouville_form"]["logs"][0].update(
        arg=d["liouville_form"]["logs"][0]["arg"] + " + 1/1000"),
])
def test_integrate_corrupted_report_fails(integral, corrupt):
    request, data = integral
    data = copy.deepcopy(data)
    corrupt(data)
    assert check(request, data) is not None


@pytest.fixture(scope="module")
def systems(tmp_path_factory):
    import numpy as np
    rng = np.random.default_rng(3)
    out = tmp_path_factory.mktemp("systems")
    generic = workloads._system_request(
        str(out / "g.json"), workloads._poles(rng, 2),
        workloads._residues(rng, 3, 2), False)
    poles, mats = workloads.planted_triangular_system()
    planted = workloads._system_request(str(out / "p.json"), poles, mats,
                                        True, "misjudged-triangular")
    return [(req, report(req["argv"])[0]) for req in (generic, planted)]


def test_fuchsian_true_report_passes(systems):
    request, data = systems[0]
    assert check(request, data) is None


@pytest.mark.parametrize("corrupt", [
    lambda d: d["verdict"].update(status="Representable"),
    lambda d: d["monodromy"]["matrices"][0][0].__setitem__(0, [2.0, 0.0]),
    lambda d: d["monodromy"]["matrices"].pop(),
])
def test_fuchsian_corrupted_report_fails(systems, corrupt):
    request, data = systems[0]
    data = copy.deepcopy(data)
    corrupt(data)
    assert check(request, data) is not None


def test_misjudged_triangular_system_fails(systems):
    request, data = systems[1]
    assert data["verdict"]["status"] == "NotRepresentable"
    assert "triangularizable" in check(request, data)


@pytest.fixture(scope="module")
def short_requests():
    import random
    rng = random.Random(5)
    out = []
    for request in (workloads.ode_request(rng, 2, 1),
                    workloads.decompose_request(workloads.composition(rng, 2)),
                    workloads.puiseux_request(workloads.puiseux_curve(rng))):
        out.append((request, report(request["argv"])[0]))
    return out


def test_short_true_reports_pass(short_requests):
    for request, data in short_requests:
        assert check(request, data) is None, request["argv"]


def test_ode_corrupted_witness_fails(short_requests):
    request, data = copy.deepcopy(short_requests[0])
    data["witnesses"] = [w + "+1" for w in data["witnesses"]]
    assert check(request, data) is not None
    request, data = copy.deepcopy(short_requests[0])
    data["witnesses"] = []
    assert check(request, data) is not None


def test_decompose_corrupted_chain_fails():
    request = {"argv": ["decompose", "--", "x^6+2*x^3+1"],
               "kind": "decompose", "meta": {"expr": "x^6+2*x^3+1"}}
    data, _code = report(request["argv"])
    assert check(request, data) is None
    bad = copy.deepcopy(data)
    bad["chain"] = ["x^3", "x^2 + 2*x + 2"]
    assert "compose" in check(request, bad)
    bad = copy.deepcopy(data)
    bad["chain"] = ["x^6+2*x^3+1"]  # composes back, but is not complete
    assert "degrees" in check(request, bad)


def test_puiseux_corrupted_series_fails(short_requests):
    request, data = copy.deepcopy(short_requests[2])
    data["series"][0]["coefficients"][0][0] += 0.5
    assert check(request, data) is not None
    request, data = copy.deepcopy(short_requests[2])
    data["series"][0]["ramification"] += 1
    assert check(request, data) is not None


def test_composition_degrees_oracle():
    import sympy
    x = checks.X
    cases = {"x^6": [2, 3], "x^5+x": [5],
             "4*x^6 - 8*x^5 + 8*x^4 + 4*x^3 - 7*x^2 + 4*x + 4": [2, 3]}
    for text, degrees in cases.items():
        f = sympy.Poly(checks.parse(text), x, domain="QQ")
        assert sorted(checks.composition_degrees(f)) == degrees


def traced_calls(tmp_path, argv):
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps([[{"argv": argv}]]))
    out = tmp_path / "served.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(BENCH, "serve.py"),
                    "--requests", str(requests), "--seconds", "0",
                    "--trace", "1", "--out", str(out)],
                   env=env, check=True, timeout=300)
    return json.loads(out.read_text())["per_layer"]


def test_tracer_counts_calls_through_imported_names(tmp_path):
    plain = traced_calls(tmp_path, ["algebraic", "--", "y^3-x"])
    assert plain["monodromy.monodromy_group.calls"][0] == 2
    assert plain["monodromy.singular_points.calls"][0] == 3
    assert plain["parse.parse_expression.calls"][0] == 1
    with_k = traced_calls(tmp_path, ["algebraic", "--k", "4", "--", "y^3-x"])
    assert with_k["monodromy.monodromy_group.calls"][0] == 3
    assert with_k["monodromy.singular_points.calls"][0] == 4


def test_rounds_have_a_fixed_make_up(tmp_path):
    with open(workloads.PANEL, encoding="utf-8") as handle:
        panel = json.load(handle)["curves"]
    pool = {text for curves in panel.values() for text in curves}
    for seed in (1, 2):
        rounds = workloads.build("curves", seed, str(tmp_path))
        assert len(rounds) == workloads.ROUNDS["curves"]
        for requests in rounds:
            planted = [r for r in requests if r["meta"]["planted"]]
            seeded = [r["meta"]["expr"] for r in requests
                      if r["meta"]["expr"] not in (
                          workloads.STIFF_CURVE, workloads.CHEBYSHEV_5,
                          workloads.CHEBYSHEV_6)]
            assert len(requests) == 20 and len(planted) == 2
            assert len(seeded) == len(set(seeded)) == 17
            assert set(seeded) <= pool
    assert workloads.build("curves", 1, str(tmp_path)) \
        != workloads.build("curves", 2, str(tmp_path))


def test_benchmark_json_names_every_printed_metric():
    import run
    import tracer
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    served = {"records": [[0, 0, 0.5, 0, 0, None, 1.0]],
              "loop_seconds": 1.0, "peak_rss_mb": 80.0}
    printed = run.end_to_end(served, 0, "curves", 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(printed)
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(run.WORKLOADS) == sorted(workloads.ROUNDS)


def test_host_speed_factors_use_the_references_around_each_request(
        monkeypatch):
    import hostspeed
    readings = iter([0.010, 0.020, 0.030])
    monkeypatch.setattr(hostspeed, "measure", lambda: next(readings))
    meter = hostspeed.Meter(interval=3600.0)
    meter.calibrate()
    meter.served()            # too soon to calibrate
    meter.served()
    meter.interval = 0.0
    meter.served()            # calibrates: the three share 0.010, 0.020
    meter.served()            # between 0.020 and 0.030 (from factors())
    ref = hostspeed.REFERENCE_SECONDS
    assert meter.factors() == pytest.approx(
        [ref / 0.015] * 3 + [ref / 0.025])

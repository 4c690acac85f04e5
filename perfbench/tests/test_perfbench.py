"""Tests of the benchmark's own machinery: tracer, checks and metadata.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import surf4  # noqa: E402
import surf4.cli  # noqa: E402

EXAMPLE1 = ROOT / "surfaces" / "example1.surf"
EXACT_COUNTS = ("expr.eval_surface.calls", "jets.constant.calls",
                "characteristics.f_partials.scalar_calls",
                "frames.curvature_report.calls")


def test_self_time_subtracts_union_of_children():
    # children overlap each other and stick out of the parent interval
    children = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.0, 12.0), (-2.0, -1.0)]
    assert spans.self_time(0.0, 10.0, children) == pytest.approx(4.0)
    assert spans.self_time(0.0, 10.0, []) == 10.0
    assert spans.self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == 0.0


def test_nested_spans_charge_self_time_to_each_layer():
    ticks = iter([0.0, 1.0, 4.0, 6.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    outer = tracer.wrap("outer", lambda: (inner(), inner_jets()))
    inner = tracer.wrap("inner", lambda: None)
    inner_jets = tracer.wrap_jets(lambda: None)
    outer()
    assert tracer.self_s["inner"] == 3.0
    assert tracer.self_s["jets"] == 1.0
    assert tracer.self_s["outer"] == 10.0 - 3.0 - 1.0
    # jets entries are aggregated, not recorded one by one
    assert [span[3] for span in tracer.spans] == ["inner", "outer"]


def test_recursive_function_is_spanned_once():
    tracer = spans.Tracer()
    with tracer:
        tracer.install(surf4)
        surf4.cli.to_json({"a": [1.0, {"b": [2.0, 3.0]}]})
    assert tracer.calls["cli.to_json"] == 1


def test_install_rebinds_every_alias_and_uninstall_restores():
    frames_fn = surf4.frames.curvature_report
    suite_fn = surf4.suites.SUITES["plucker"]
    jet_mul = surf4.jets.Jet.__mul__
    tracer = spans.Tracer()
    with tracer:
        tracer.install(surf4)
        wrapped = surf4.frames.curvature_report
        assert wrapped is not frames_fn
        assert surf4.cli.curvature_report is wrapped
        assert surf4.suites.SUITES["plucker"] is not suite_fn
        assert surf4.jets.Jet.__mul__ is not jet_mul
    assert surf4.frames.curvature_report is frames_fn
    assert surf4.cli.curvature_report is frames_fn
    assert surf4.suites.SUITES["plucker"] is suite_fn
    assert surf4.jets.Jet.__mul__ is jet_mul


def test_require_names_spans_without_calls():
    tracer = spans.Tracer()
    tracer.wrap("seen", lambda: None)()
    tracer.require(["seen"])
    with pytest.raises(spans.CoverageError, match="never_called"):
        tracer.require(["seen", "never_called"])


def _small_commands(work):
    survey = workloads.build("survey", 7, work, EXAMPLE1, grid=5)
    small_reconstruct = workloads.Command(
        "reconstruct", ["reconstruct", "--n-curves", "5", "--dt", "0.01",
                        "--out", str(work / "small.csv")],
        "reconstruct", str(work / "small.csv"))
    verify = [workloads.Command(f"verify-{suite}",
                                ["verify", "--suite", suite], "verify")
              for suite in ("plucker", "lift")]
    return survey.commands + [small_reconstruct] + verify


def _traced(commands):
    with spans.Tracer() as tracer:
        tracer.install(surf4, {"characteristics.f_partials":
                               run._count_f_partials})
        _, outcomes = run.run_iteration(surf4.cli, commands, tracer)
    return tracer, outcomes


def _outputs(outcomes):
    return [(o.rc, o.stdout, o.out) for o in outcomes]


def test_tracing_changes_no_output_and_counts_repeat(tmp_path):
    commands = _small_commands(tmp_path)
    _, plain = run.run_iteration(surf4.cli, commands)
    first, traced1 = _traced(commands)
    second, traced2 = _traced(commands)
    assert _outputs(traced1) == _outputs(plain)
    assert _outputs(traced2) == _outputs(plain)
    assert all(o.error is None for o in plain)
    m1 = run.layer_metrics(first, traced1, 0.0)
    m2 = run.layer_metrics(second, traced2, 0.0)
    for name in EXACT_COUNTS:
        assert m1[name] > 0, name
        assert m1[name] == m2[name], name
    assert set(m1) == set(run.PER_LAYER)
    # 5x5 analyze evaluates twice per point, gaussmap and congruence once
    grid = [o for o in traced1 if o.command.points]
    assert [o.eval_calls / o.command.points for o in grid] == [2, 1, 1] * 2


def test_survey_outputs_pass_checks(tmp_path):
    survey = workloads.build("survey", 3, tmp_path, EXAMPLE1, grid=5)
    _, outcomes = run.run_iteration(surf4.cli, survey.commands)
    assert run.check_all(outcomes, {}) == (0, [])


def test_checks_catch_mismatch_and_non_finite(tmp_path):
    survey = workloads.build("survey", 3, tmp_path, EXAMPLE1, grid=5)
    _, outcomes = run.run_iteration(surf4.cli, survey.commands[:2])
    analyze, gaussmap = outcomes
    lines = gaussmap.out.decode().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",0.5"
    gaussmap.out = ("\n".join(lines) + "\n").encode()
    failed, problems = run.check_all([analyze, gaussmap], {})
    assert failed == 1 and "differ from analyze" in problems[0]
    analyze.out = analyze.out.replace(b'"K": ', b'"K": nan, "K0": ', 1)
    failed, problems = run.check_all([analyze], {})
    assert failed == 1 and "unreadable" in problems[0]


def test_digest_mismatch_fails(tmp_path):
    verify = workloads.Command("verify", ["verify", "--suite", "lift"],
                               "verify")
    _, outcomes = run.run_iteration(surf4.cli, [verify])
    digests = workloads.record_digests(outcomes)
    assert run.check_all(outcomes, digests) == (0, [])
    outcomes[0].stdout += " "
    assert run.check_all(outcomes, digests)[0] == 1


def test_seeded_surface_keeps_its_tree():
    a, b = (workloads.seeded_surface_text(s) for s in (1, 2))
    assert a == workloads.seeded_surface_text(1)
    assert a != b
    body = [line for line in a.splitlines() if not line.startswith(
        ("param", "#"))]
    assert body == [line for line in b.splitlines() if not line.startswith(
        ("param", "#"))]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_inconsistency_error_counts_once():
    error = surf4.frames.InternalInconsistencyError("bad")

    def fail():
        raise error

    tracer = spans.Tracer()
    outer = tracer.wrap("outer", tracer.wrap("inner", fail))
    with pytest.raises(surf4.frames.InternalInconsistencyError):
        outer()
    assert tracer.counters["frames.inconsistency_errors"] == 1

"""The benchmark's per-layer tracer, loaded from bench/ as the benchmark
loads it: entering it fails if a name its metrics read is gone from biskit."""

import importlib.util
import os

import biskit.cli
import biskit.laws
import biskit.rook
from biskit.corpus import corpus_semigroup, corpus_text

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(BENCH, "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_enters_records_and_restores():
    tracing = load_tracing()
    decompose, theta_iso = biskit.rook.decompose, biskit.rook.theta_iso
    with tracing.Tracer() as tracer:
        assert biskit.rook.decompose is not decompose
        biskit.laws.run_laws(corpus_semigroup("i2"))
    assert biskit.rook.decompose is decompose
    assert biskit.rook.theta_iso is theta_iso
    calls, _self_s = tracing.span_stats(tracer.spans, tracer.excluded)
    for name in (
        "decompose",
        "theta_iso",
        "k_of_groupoid",
        "laws.main-finite",
        "laws.setminus-4",
        "laws.restricted-product",
        "laws.eggs",
        "laws.oj",
        "laws.setminus-2",
        "laws.fish",
    ):
        assert calls[name] >= 1, name


def test_tracer_records_the_rook_layer():
    # on powerset2 laws ale and butterfly both decide, so the rook kernels,
    # the matrix oracle and the refinement check each record a span: a
    # kernel inlined into its caller would drop out of rook_mul.calls
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        results = biskit.laws.run_laws(corpus_semigroup("powerset2"))
    status = {r.key: r.status for r in results}
    assert status["ale"] == status["butterfly"] == "pass"
    calls, _self_s = tracing.span_stats(tracer.spans, tracer.excluded)
    for name in (
        "rook_mul",
        "rook_matrix",
        "rook_star",
        "type_via_matrices",
        "refinement_check",
        "laws.ale",
        "laws.butterfly",
    ):
        assert calls[name] >= 1, name


def test_verify_builds_the_restricted_groupoid_once(tmp_path, capsys):
    # on i2 laws carre and booleanization-finite both decide, and both read
    # the restricted groupoid, so one build serves both; the validation
    # layers' metrics still find their spans
    tracing = load_tracing()
    path = tmp_path / "i2.ist"
    path.write_text(corpus_text("i2.ist"))
    with tracing.Tracer() as tracer:
        assert biskit.cli.main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  carre: pass" in out and "  booleanization-finite: pass" in out
    calls, _self_s = tracing.span_stats(tracer.spans, tracer.excluded)
    assert calls["restricted_groupoid"] == 1
    # entering the tracer checked that every span a metric reads is wrapped
    read = ("Gpd", "component_form", "join_table", "meet_table", "booleanize")
    assert {*read, "filter_groupoid"} <= tracing.SPANS_READ
    for name in read:
        assert calls[name] >= 1, name

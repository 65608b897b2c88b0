"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    generate = workloads.WORKLOADS[name].generate
    specs, ops = generate(7)
    assert len(ops) >= workloads.MIN_POOL
    assert generate(7) == (specs, ops)
    other_specs, other_ops = generate(8)
    assert other_ops != ops
    # The anchor op, timed cold by the set-up probe, is the same for every
    # seed, and so is the spec it uses.
    assert other_ops[0] == ops[0]
    if specs:
        assert other_specs[0] == specs[0]


def _bindings():
    """(module, attribute) -> bound object, for every bryantflux module."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "bryantflux" or name.startswith("bryantflux.")
            for attr, value in vars(module).items()}


def test_tracer_restores_every_patched_name():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        patched = {key for key in before if during[key] is not before[key]}
        for key in (("bryantflux.series", "eval_at"),
                    ("bryantflux.bryant", "eval_at"),
                    ("bryantflux.flux", "immersion_samples"),
                    ("bryantflux.cli", "build_end"),
                    ("bryantflux", "build_end")):
            assert key in patched
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_under_the_op_and_self_times_add_up(tmp_path):
    workload = workloads.WORKLOADS["verify"]
    specs, ops = workload.generate(1)
    ctx = workloads.Context(str(tmp_path), specs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            workloads.run_op(workload, ops[0], ctx)
    finally:
        tracer.remove()
    spans = tracer.spans
    assert spans[0].name == "op" and spans[0].parent is None
    assert all(s.op == 0 for s in spans)
    assert all(s.parent is not None and s.parent < i
               for i, s in enumerate(spans[1:], start=1))
    selfs = tracing.self_times(spans)
    assert min(selfs) > -1e-9
    assert sum(selfs) == pytest.approx(spans[0].duration, rel=1e-9)
    m = tracing.layer_metrics(spans, passes=1)
    # run.py adds the two metrics that need more than the spans.
    assert (set(m) | {"cli.bytes_out", "trace.overhead"}
            == set(tracing.PER_LAYER_UNITS))
    assert m["cli.run.calls"] == 1
    assert m["ends.build_end.calls"] == 1
    assert m["flux.rings_per_circle"] == 5.0
    assert m["flux.samples_reuse"] == 1.0
    assert m["series.eval_at.terms"] > 0


@pytest.mark.parametrize("rc, stdout, outcome", [
    (1, json.dumps({"max_defect": 1e-3, "geodesics": 8, "rho": 0.1,
                    "samples": 1024}), "wrong"),
    (2, "", "error"),
])
def test_a_verify_defect_is_a_wrong_output_not_an_error(
        monkeypatch, tmp_path, rc, stdout, outcome):
    """The CLI exits 1 on a large max_defect and 2 on an error; only the
    first is an output, and it must fail its check."""
    import run
    workload = workloads.WORKLOADS["verify"]
    specs, ops = workload.generate(1)
    ctx = workloads.Context(str(tmp_path), specs)
    monkeypatch.setattr(workloads, "capture_cli", lambda argv: (rc, stdout))
    _, outcomes, _ = run._pass(workload, ops[:1], ctx)
    assert outcomes == [outcome]
    assert run._summary(outcomes)[0] == (outcome != "wrong")


def test_a_refused_survey_configuration_is_not_a_failed_op(monkeypatch):
    """build_end's ConsistencyError is a refusal: no digits, not failed."""
    import run

    def refuse(spec, order=None):
        raise workloads.bf.ConsistencyError("determinant residual")

    workload = workloads.WORKLOADS["survey"]
    _, ops = workload.generate(1)
    monkeypatch.setattr(workloads.bf, "build_end", refuse)
    _, outcomes, _ = run._pass(workload, ops[:1], None)
    assert outcomes == [workloads.REFUSED]
    assert run._summary(outcomes) == (True, 1, 0)


def test_benchmark_json_names_every_reported_metric():
    import run
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in bench["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == tracing.PER_LAYER_UNITS)

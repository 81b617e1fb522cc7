import contextlib
import io
import itertools

import numpy as np
import pytest

import liosym
import liosym.cli
import liosym.fourdim
import liosym.gaussian
import liosym.generators
import liosym.models
import liosym.transforms
from perfbench.run import PER_LAYER_UNITS
from perfbench.tracing import Tracer, layer_metrics, self_times


def span(name, start, end, parent=None):
    return [name, start, end, parent, 0]


def test_self_time_is_duration_minus_child_coverage():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 3.0, 0),
             span("b", 2.0, 5.0, 0),       # overlaps a: union is 1..5
             span("c", 7.0, 8.0, 0),
             span("a.child", 1.5, 2.5, 1),
             span("clipped", 9.5, 11.0, 0)]  # only 9.5..10 lies in root
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert got[1] == pytest.approx(2.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)


def test_self_times_of_a_nested_run_add_up_to_the_root():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    with tracer.span("root"):
        outer()
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(root[2] - root[1])


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def names(tracer):
    return [s[0] for s in tracer.spans]


def parent_name(tracer, i):
    return tracer.spans[tracer.spans[i][3]][0]


def test_install_binds_every_name_and_uninstall_restores():
    original = liosym.generators.ten_generators
    tr = Tracer()
    tr.install()
    try:
        for mod in (liosym, liosym.generators, liosym.models,
                    liosym.transforms, liosym.cli):
            assert mod.ten_generators is not original
            assert mod.ten_generators.__wrapped__ is original
    finally:
        tr.uninstall()
    for mod in (liosym, liosym.generators, liosym.models,
                liosym.transforms, liosym.cli):
        assert mod.ten_generators is original


def test_wrapped_results_are_unchanged(tracer):
    s = liosym.gaussian.StationaryGaussian(1.0)
    got = liosym.gaussian.positivity_boundary("translate", s, n=16)
    tracer.uninstall()
    want = liosym.gaussian.positivity_boundary("translate", s, n=16)
    assert got == want
    gens = liosym.generators.ten_generators(8)
    tracer.install()
    traced = liosym.generators.ten_generators(8)
    assert set(traced) == set(gens)
    for name in gens:
        np.testing.assert_array_equal(traced[name], gens[name])


def test_calls_between_layers_are_spans_of_their_caller(tracer):
    s = liosym.gaussian.StationaryGaussian(1.0)
    liosym.gaussian.positivity_boundary("translate", s, n=12)
    liosym.fourdim.ladder_action_residual(8)
    got = names(tracer)
    fock = [i for i, n in enumerate(got)
            if n == "gaussian.fock_from_gaussian"]
    assert fock
    assert {parent_name(tracer, i) for i in fock} == {
        "gaussian.numeric_positivity_boundary"}
    gens = got.index("generators.ten_generators")
    assert parent_name(tracer, gens) == "fourdim.ladder_action_residual"


def test_cli_task_records_layers_and_counters(tracer):
    with tracer.span("task"), contextlib.redirect_stdout(io.StringIO()):
        code = liosym.cli.main(["steady", "--model", "cl", "--gamma", "0.4",
                                "--fock-dim", "10"])
    assert code in (0, 3)
    got = names(tracer)
    assert got[:2] == ["task", "cli.main"]
    assert parent_name(tracer, got.index("models.model_generator")) == \
        "cli.main"
    assert parent_name(tracer, got.index("generators.ten_generators")) == \
        "models.model_generator"
    m = layer_metrics(tracer, 1.0, PER_LAYER_UNITS)
    assert list(m) == list(PER_LAYER_UNITS)
    assert m["generators.ten_generators.calls"] == 1
    assert m["generators.ten_generators.bytes"] == 10 * 10 ** 4 * 16
    assert m["generators.ten_generators.distinct_frac"] == 1.0
    assert 0 < m["models.K_nnz_frac"] < 0.2
    assert m["models.steady_state.calls"] == 1
    assert m["cli.self_s"] > 0
    assert 0 < m["trace.overhead_frac"] < 1

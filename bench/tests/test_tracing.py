import types

import pytest

from bench.tracing import (
    Span,
    SpanRecorder,
    conservation_errors,
    covered,
    patched,
    root_of,
    self_times,
)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a by 1
        Span("c", 8.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(7.0)
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 4.0])


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("child", 2.0, 8.0, parent=0),
        Span("grandchild", 3.0, 5.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])
    assert root_of(spans) == [0, 0, 0]


def test_patched_wraps_and_restores_module_functions_and_methods():
    module = types.ModuleType("layer")
    module.square = lambda x: x * x

    class Model:
        def forward(self, x):
            return module.square(x) + 1

    model = Model()
    recorder = SpanRecorder()
    original = module.square
    with patched(recorder, [
        (model, "forward", "forward", None),
        (module, "square", "square", lambda args, kwargs, result: {"x": args[0]}),
    ]):
        assert model.forward(3) == 10
    assert [(s.name, s.parent) for s in recorder.spans] == [("forward", None), ("square", 0)]
    assert recorder.spans[1].attrs == {"x": 3}
    assert module.square is original
    assert "forward" not in vars(model)
    model.forward(2)
    assert len(recorder.spans) == 2


def test_conservation_names_the_bypassed_span():
    spans = [Span("cnn", 0.0, 1.0)] + [Span("cnn.conv", 0.1, 0.2, parent=0)] * 2
    errors = conservation_errors(spans, {("cnn", "cnn.conv"): 3, ("cnn", "cnn.fc"): 1})
    assert len(errors) == 2
    assert "had 2 'cnn.conv' children, expected 3" in errors[0]
    assert "had 0 'cnn.fc' children, expected 1" in errors[1]
    full = spans + [Span("cnn.conv", 0.3, 0.4, parent=0), Span("cnn.fc", 0.5, 0.6, parent=0)]
    assert conservation_errors(full, {("cnn", "cnn.conv"): 3, ("cnn", "cnn.fc"): 1}) == []

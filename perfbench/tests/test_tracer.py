"""Self-time arithmetic and name patching of the span recorder."""

import threading

import pytest

from tracer import Span, Tracer, aggregate, coverage, self_times


def span(span_id, name, start, end, parent=None, thread=1):
    return Span(span_id, name, thread, start, end, parent)


def test_nested_children_are_subtracted_once():
    spans = [
        span(0, "campaign", 0.0, 10.0),
        span(1, "sensor.sample", 1.0, 4.0, parent=0),
        span(2, "cpa.update", 5.0, 6.0, parent=0),
        span(3, "models.hypotheses", 2.0, 3.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs == {0: pytest.approx(6.0), 1: pytest.approx(2.0),
                     2: pytest.approx(1.0), 3: pytest.approx(1.0)}
    # Self times of a tree add up to the root's duration.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_count_their_union():
    spans = [
        span(0, "executors.wait", 0.0, 10.0),
        span(1, "executors.task", 1.0, 5.0, parent=0),
        span(2, "executors.task", 3.0, 7.0, parent=0),
        span(3, "executors.task", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_threaded_spans_take_nothing_from_their_cause():
    main = span(0, "executors.wait", 0.0, 4.0, thread=1)
    workers = [
        Span(1, "executors.task", 2, 0.5, 3.5, None, cause=0),
        Span(2, "sensor.sample", 2, 1.0, 3.0, 1),
        Span(3, "executors.task", 3, 0.5, 3.0, None, cause=0),
    ]
    totals = aggregate([main] + workers)
    assert totals["executors.wait"].seconds == pytest.approx(4.0)
    assert totals["executors.task"].seconds == pytest.approx(1.0 + 2.5)
    assert totals["sensor.sample"].seconds == pytest.approx(2.0)
    share, unattributed = coverage(totals)
    assert unattributed == pytest.approx(3.5)
    assert share == pytest.approx(6.0 / 9.5)


def test_recorded_threads_keep_separate_stacks():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    barrier = threading.Barrier(2)

    def work():
        barrier.wait()
        return tracer.call("sensor.sample", lambda: None)

    def run_pair():
        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

    tracer.call("campaign", run_pair)
    spans = tracer.drain()
    root = next(s for s in spans if s.name == "campaign")
    samples = [s for s in spans if s.name == "sensor.sample"]
    assert len(samples) == 2
    assert all(s.parent is None for s in samples)
    assert self_times(spans)[root.span_id] == pytest.approx(root.duration)


def test_patch_reaches_names_imported_elsewhere_and_uninstall_restores():
    import repro.core.postprocess as postprocess
    import repro.experiments.parallel as parallel

    original = postprocess.hamming_weight_series
    assert parallel.hamming_weight_series is original
    tracer = Tracer()
    tracer.patch(
        "repro.core.postprocess:hamming_weight_series",
        tracer.wrap("postprocess.reduce", original),
    )
    try:
        assert parallel.hamming_weight_series is not original
        assert postprocess.hamming_weight_series is parallel.hamming_weight_series
    finally:
        tracer.uninstall()
    assert parallel.hamming_weight_series is original
    assert postprocess.hamming_weight_series is original


def test_uninstall_leaves_no_wrapper_behind():
    import sys

    import layers
    from tracer import resolve

    targets = [t for _name, ts, _items, _moves in layers.LAYERS for t in ts]
    targets += list(layers.SERVICE_ROOTS)
    tracer = Tracer()
    layers.install(tracer, roots=layers.SERVICE_ROOTS)
    originals = {id(resolve(t)[2].__wrapped__) for t in targets}
    tracer.uninstall()
    assert not any(hasattr(resolve(t)[2], "__wrapped__") and
                   id(resolve(t)[2].__wrapped__) in originals for t in targets)
    left = [
        "%s.%s" % (module.__name__, name)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro")
        for name, value in list(vars(module).items())
        if id(getattr(value, "__wrapped__", None)) in originals
    ]
    assert left == []

"""Tests of the tracer: python3 -m pytest perfbench"""

import types

import pytest

from tracer import Tracer


def make_module():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(mod.leaf(x))
    mod.recurse = lambda n: 0 if n == 0 else 1 + mod.recurse(n - 1)
    return mod


class Thing:
    def method(self, x):
        return 2 * x


def names(tracer):
    return [tracer.names[i] for i in tracer.arrays()["name_id"]]


def test_spans_parents_and_self_time():
    mod, tracer = make_module(), Tracer()
    tracer.wrap(mod, "leaf", "leaf")
    tracer.wrap(mod, "outer", "outer")
    tracer.enabled = True
    assert mod.outer(1) == 3
    a = tracer.arrays()
    assert names(tracer) == ["outer", "leaf", "leaf"]
    assert list(a["parent"]) == [-1, 0, 0]
    assert a["self"][0] == pytest.approx(a["dur"][0] - a["dur"][1] - a["dur"][2])


def test_reentrant_calls_count_once():
    mod, tracer = make_module(), Tracer()
    tracer.wrap(mod, "recurse", "recurse")
    tracer.enabled = True
    assert mod.recurse(5) == 5
    assert names(tracer) == ["recurse"]


def test_disabled_records_nothing_and_restore_puts_originals_back():
    mod, tracer = make_module(), Tracer()
    leaf, method = mod.leaf, Thing.method
    tracer.wrap(mod, "leaf", "leaf", work=lambda args, kwargs: float(args[0]))
    tracer.wrap(Thing, "method", "method")
    assert mod.leaf(1) == 2 and len(tracer.start) == 0
    tracer.enabled = True
    assert Thing().method(3) == 6 and mod.leaf(4) == 5
    assert names(tracer) == ["method", "leaf"]
    assert tracer.arrays()["work"][1] == 4.0
    tracer.restore()
    assert mod.leaf is leaf and Thing.method is method


def test_after_hook_sees_result_and_dict_items_are_wrapped():
    suites, seen, tracer = {"a": lambda: [1, 2]}, [], Tracer()
    original = suites["a"]
    tracer.wrap_item(suites, "a", "suite", after=lambda args, kwargs, result: seen.append(result))
    tracer.enabled = True
    assert suites["a"]() == [1, 2] and seen == [[1, 2]]
    tracer.restore()
    assert suites["a"] is original


def test_on_result_sees_results_without_recording_a_span():
    mod, seen, tracer = make_module(), [], Tracer()
    leaf = mod.leaf
    tracer.on_result(mod, "leaf", seen.append)
    tracer.enabled = True
    assert mod.leaf(1) == 2 and seen == [2]
    assert len(tracer.start) == 0
    tracer.restore()
    assert mod.leaf is leaf

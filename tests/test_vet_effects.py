"""Effect inference unit tests: the BLOCKING/PURE lattice and the
call-site classification rules that keep dropped-wait false-positive
free."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.vet.callgraph import CallGraph
from repro.vet.effects import BLOCKING, PURE, call_effect, infer_effects
from repro.vet.loader import ModuleInfo


def _graph(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    tree = ast.parse(path.read_text())
    module = ModuleInfo(path, tree, Path(name))
    graph = CallGraph([module])
    return graph, infer_effects(graph)


def _fn(graph, name):
    (fn,) = graph.resolve(name)
    return fn


def _call(source):
    node = ast.parse(textwrap.dedent(source)).body[0].value
    assert isinstance(node, ast.Call)
    return node


def test_generator_is_blocking(tmp_path):
    graph, effects = _graph(tmp_path, """
        def wait(engine):
            yield engine.timeout(1)

        def compute(x):
            return x + 1
    """)
    assert effects[_fn(graph, "wait")] == BLOCKING
    assert effects[_fn(graph, "compute")] == PURE


def test_effect_propagates_through_return_wrapper(tmp_path):
    graph, effects = _graph(tmp_path, """
        def wait(engine):
            yield engine.timeout(1)

        def forward(engine):
            return wait(engine)

        def forward_twice(engine):
            return forward(engine)
    """)
    assert effects[_fn(graph, "forward")] == BLOCKING
    assert effects[_fn(graph, "forward_twice")] == BLOCKING


def test_plain_call_does_not_propagate(tmp_path):
    # calling a blocking function without returning its result does not
    # make the caller blocking — the caller may legitimately spawn it
    graph, effects = _graph(tmp_path, """
        def wait(engine):
            yield engine.timeout(1)

        def spawn(engine):
            engine.process(wait(engine))
            return None
    """)
    assert effects[_fn(graph, "spawn")] == PURE


def test_nested_def_yields_do_not_leak(tmp_path):
    graph, effects = _graph(tmp_path, """
        def outer(engine):
            def inner():
                yield engine.timeout(1)
            return inner
    """)
    assert effects[_fn(graph, "outer")] == PURE
    assert effects[_fn(graph, "inner")] == BLOCKING


def test_call_effect_blocking_when_all_candidates_agree(tmp_path):
    graph, effects = _graph(tmp_path, """
        def wait(engine):
            yield engine.timeout(1)
    """)
    assert call_effect(graph, effects, _call("x.wait(e)")) == BLOCKING
    assert call_effect(graph, effects, _call("wait(e)")) == BLOCKING


def test_call_effect_none_on_mixed_candidates(tmp_path):
    # two defs share the name `acquire`: one blocks, one returns an
    # Event for a plain yield — the call site must not be classified
    graph, effects = _graph(tmp_path, """
        class BufferPool:
            def acquire(self, engine):
                yield engine.timeout(1)

        class Resource:
            def acquire(self):
                return self.event
    """)
    assert call_effect(graph, effects, _call("pool.acquire(e)")) is None


def test_call_effect_none_on_unknown_name(tmp_path):
    graph, effects = _graph(tmp_path, """
        def compute(x):
            return x
    """)
    assert call_effect(graph, effects, _call("mystery(1)")) is None


def test_ubiquitous_method_names_never_classified(tmp_path):
    # a scanned generator named like a builtin container method must not
    # make `seen.add(x)` look blocking
    graph, effects = _graph(tmp_path, """
        class DexArray:
            def add(self, ctx, index, delta):
                yield ctx.engine.timeout(1)
    """)
    assert call_effect(graph, effects, _call("seen.add(x)")) is None
    # ...and it contributes no call-graph edges either
    graph2, _ = _graph(tmp_path, """
        def caller(seen, x):
            seen.add(x)
    """, name="mod2.py")
    assert "add" not in _fn(graph2, "caller").called_names


def test_pure_call_classified_pure(tmp_path):
    graph, effects = _graph(tmp_path, """
        def compute(x):
            return x + 1
    """)
    assert call_effect(graph, effects, _call("compute(1)")) == PURE

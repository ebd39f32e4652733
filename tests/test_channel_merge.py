"""Property tests for the foldt bulk path: task channels and merge nodes.

``TaskChannel`` keeps EOS as the last queued item, which is what makes
its occupancy O(1); ``MergeTask`` keys each element once.  These tests
check both against simple models under random operation sequences.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hadoop_agg import NATIVE_COMBINE_OPS, hadoop_bindings
from repro.core.errors import ChannelClosed, ChannelFull
from repro.lang.values import Record
from repro.runtime.channel import EOS, TaskChannel
from repro.runtime.costs import TASK_DISPATCH_US, ops_to_us
from repro.runtime.task import MergeTask
from repro.workloads.hadoop_mappers import reference_wordcount


class TestChannelInvariants:
    @given(
        st.lists(st.sampled_from(("push", "pop", "close")), max_size=40),
        st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants_after_every_op(self, ops, capacity):
        chan = TaskChannel("c", capacity)
        model = deque()  # queued data items, EOS excluded
        closed = eos_popped = False
        flips = {"at_eos": 0, "exhausted": 0}
        last = {"at_eos": False, "exhausted": False}

        def check():
            assert len(chan) == len(model)
            assert chan.ready() == bool(model)
            assert chan.peek() == (model[0] if model else None)
            assert chan.closed == closed
            state = {
                "at_eos": chan.at_eos(),
                "exhausted": chan.exhausted(),
            }
            assert state["at_eos"] == (closed and not model)
            assert state["exhausted"] == eos_popped
            for name, value in state.items():
                assert value or not last[name], f"{name} flipped back"
                flips[name] += value and not last[name]
                last[name] = value

        # Run the random ops, then close and drain so both flags must flip.
        for n, op in enumerate([*ops, "close", *["pop"] * (capacity + 1)]):
            if op == "push" and closed:
                with pytest.raises(ChannelClosed):
                    chan.push(n)
            elif op == "push" and len(model) >= capacity:
                with pytest.raises(ChannelFull):
                    chan.push(n)
            elif op == "push":
                chan.push(n)
                model.append(n)
            elif op == "pop" and model:
                assert chan.pop() == model.popleft()
            elif op == "pop" and closed and not eos_popped:
                assert chan.pop() is EOS
                eos_popped = True
            elif op == "pop":
                with pytest.raises(ChannelClosed):
                    chan.pop()
            else:
                chan.close()
                closed = True
            check()
        assert flips == {"at_eos": 1, "exhausted": 1}


def _sorted_pairs():
    pairs = st.lists(
        st.tuples(st.sampled_from("abcdef"), st.integers(1, 9).map(str)),
        max_size=24,
    )
    return pairs.map(lambda ps: sorted(ps, key=lambda kv: kv[0]))


_budgets = st.one_of(
    st.none(),
    st.just(0.0),
    st.floats(0.01, TASK_DISPATCH_US * 0.99),  # below one dispatch
    st.floats(TASK_DISPATCH_US, 5.0),
)


class TestMergeTaskAccounting:
    @given(
        _sorted_pairs(),
        _sorted_pairs(),
        st.lists(_budgets, min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_output_and_busy_time(self, left_pairs, right_pairs, budgets, data):
        native_key, native_combine = hadoop_bindings(None, 0, 2).native_foldt
        calls = {"key": 0, "combine": 0}

        def key_fn(record):
            calls["key"] += 1
            return native_key(record)

        def combine_fn(a, b):
            calls["combine"] += 1
            return native_combine(a, b)

        left, right = TaskChannel("l", 4), TaskChannel("r", 4)
        out = TaskChannel("o", 64)
        merge = MergeTask("m", left, right, out, key_fn, combine_fn)
        feeds = [
            (chan, deque(Record("kv", {"key": k, "value": v}) for k, v in pairs))
            for chan, pairs in ((left, left_pairs), (right, right_pairs))
        ]
        combine_us = ops_to_us(NATIVE_COMBINE_OPS)
        merged = []
        for step in range(1000):
            # Feed each input a random number of items, closing it when
            # its stream runs out, so merges see partially-filled inputs.
            for chan, source in feeds:
                for _ in range(data.draw(st.integers(1, 3))):
                    if not source:
                        chan.close()
                    elif chan.has_space():
                        chan.push(source.popleft())
            budget = budgets[step % len(budgets)]
            if not merge.has_work():
                assert merge.step(budget) == (0.0, [])
                continue
            before = merge.items_processed
            elapsed, emissions = merge.step(budget)
            taken = merge.items_processed - before
            assert elapsed > 0.0 or out.closed or emissions
            if budget is not None and budget < TASK_DISPATCH_US:
                assert taken <= 1
            elif budget is not None:
                assert elapsed < budget + TASK_DISPATCH_US + combine_us
            for thunk in emissions:
                thunk()
            while not out.empty():
                item = out.pop()
                if item is not EOS:
                    merged.append((item.key, item.value))
            if out.exhausted():
                break
        assert out.exhausted()

        keys = [k for k, _ in merged]
        assert keys == sorted(set(keys))
        expected = reference_wordcount([left_pairs, right_pairs])
        assert {k: int(v) for k, v in merged} == expected
        assert merge.items_processed == len(left_pairs) + len(right_pairs)
        assert merge.busy_us == pytest.approx(
            merge.items_processed * TASK_DISPATCH_US
            + calls["combine"] * combine_us
        )
        # One key per element, plus one for each combined result.
        assert calls["key"] == merge.items_processed + calls["combine"]

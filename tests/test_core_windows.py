"""The window registry against a brute-force reference, and across a restore."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitors import CpuMonitor
from repro.core.resources import Resource, ResourceDescriptor, Window
from repro.core.viceroy import Viceroy
from repro.core.windows import WindowRegistry
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.trace.waveforms import HIGH_BANDWIDTH, constant

RESOURCES = ("r0", "r1", "r2")
OWNERS = (None, "a", "b", "c")
BOUNDS = (0.0, 1.0, 2.5, 4.0, 10.0, float("inf"))


class Reference:
    """The registry as one flat list, in registration order."""

    def __init__(self):
        self.entries = []  # [request_id, resource, owner, lower, upper]
        self.next_id = 1

    def register(self, resource, owner, lower, upper):
        self.entries.append([self.next_id, resource, owner, lower, upper])
        self.next_id += 1
        return self.next_id - 1

    def remove(self, keep):
        gone = [e for e in self.entries if not keep(e)]
        self.entries = [e for e in self.entries if keep(e)]
        return [e[0] for e in gone]

    def observe(self, resource, level_of, owner):
        violated = []
        for request_id, res, own, lower, upper in self.entries:
            if res != resource or (owner is not None and own != owner):
                continue
            level = level_of(own)
            if level is not None and not lower <= level <= upper:
                violated.append((request_id, level))
        gone = {request_id for request_id, _ in violated}
        self.remove(lambda e: e[0] not in gone)
        return violated


LEVEL = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5, 3.0, 4.0, 12.0]))

OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("register"), st.sampled_from(RESOURCES),
              st.sampled_from(OWNERS), st.sampled_from(BOUNDS),
              st.sampled_from(BOUNDS)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("drop_owner"), st.sampled_from(OWNERS[1:])),
    st.tuples(st.just("observe"), st.sampled_from(RESOURCES),
              st.fixed_dictionaries({owner: LEVEL for owner in OWNERS}),
              st.sampled_from(OWNERS)),
), max_size=60)


@settings(max_examples=300, deadline=None)
@given(OPERATIONS)
def test_registry_matches_the_flat_reference(operations):
    registry, reference = WindowRegistry(), Reference()
    returned, gone = set(), set()
    for op, *args in operations:
        if op == "register":
            resource, owner, lower, upper = args
            lower, upper = min(lower, upper), max(lower, upper)
            request_id = registry.register(resource, owner, lower, upper)
            assert request_id == reference.register(resource, owner,
                                                    lower, upper)
        elif op == "cancel":
            entry = registry.cancel(args[0])
            expected = reference.remove(lambda e: e[0] != args[0])
            assert ([entry.request_id] if entry else []) == expected
            gone.update(expected)
        elif op == "drop_owner":
            dropped = [e.request_id for e in registry.drop_owner(args[0])]
            assert dropped == reference.remove(lambda e: e[2] != args[0])
            gone.update(dropped)
        else:
            resource, levels, owner = args
            violated = [(entry.request_id, level) for entry, level
                        in registry.observe(resource, levels.get, owner)]
            assert violated == reference.observe(resource, levels.get, owner)
            ids = [request_id for request_id, _ in violated]
            assert not set(ids) & (returned | gone)  # once, never after
            returned.update(ids)
        assert [e.request_id for e in registry] == \
            [e[0] for e in reference.entries]
        assert len(registry) == len(reference.entries)


def test_registry_ids_unique():
    registry = WindowRegistry()
    first = registry.register(Resource.CPU, None, 0.0, 1.0)
    second = registry.register(Resource.CPU, None, 0.0, 1.0)
    assert first != second
    registry.cancel(second)
    assert registry.register(Resource.CPU, None, 0.0, 1.0) not in (first,
                                                                   second)


def test_restored_ids_advance_the_counter_and_never_collide():
    registry = WindowRegistry()
    registry.register("r", "a", 0.0, 1.0, request_id=7)
    assert registry.next_id == 8
    assert registry.register("r", "a", 0.0, 1.0) == 8
    with pytest.raises(ValueError, match="already registered"):
        registry.register("r", "a", 0.0, 1.0, request_id=7)


def cpu_viceroy():
    sim = Simulator()
    viceroy = Viceroy(sim, Network(sim, constant(HIGH_BANDWIDTH,
                                                 duration=3600)))
    cpu = CpuMonitor(sim, rating_specint95=1.0)
    viceroy.attach_monitor(cpu)
    viceroy.upcalls.register("app", "h", lambda upcall: None)
    return viceroy, cpu


def cpu_window(lower, upper):
    return ResourceDescriptor(Resource.CPU, Window(lower, upper), "h")


ACTIONS = st.lists(st.one_of(
    st.tuples(st.just("wide")),
    st.tuples(st.just("narrow")),
    st.tuples(st.just("cancel"), st.integers(0, 20)),
    st.tuples(st.just("load"), st.sampled_from([0.0, 0.5, 1.0])),
), max_size=30)


@settings(max_examples=100, deadline=None)
@given(ACTIONS, st.integers(1, 5))
def test_ids_stay_unique_across_a_checkpoint_into_a_fresh_viceroy(actions,
                                                                  more):
    viceroy, cpu = cpu_viceroy()
    issued = []
    for action, *args in actions:
        if action == "wide":
            issued.append(viceroy.request("app", "/p", cpu_window(0.0, 10.0)))
        elif action == "narrow":
            level = cpu.current()
            issued.append(viceroy.request("app", "/p", cpu_window(level, level)))
        elif action == "cancel":
            live = [r.request_id for r in viceroy.registered_requests()]
            if live:
                viceroy.cancel(live[args[0] % len(live)])
        else:
            cpu.set_load(args[0])  # violates (drops) the narrow windows
    live = [r.request_id for r in viceroy.registered_requests()]
    snapshot = json.loads(json.dumps(viceroy.checkpoint()))

    fresh, _ = cpu_viceroy()
    restored, dropped = fresh.restore(snapshot)
    assert (restored, dropped) == (len(live), [])
    assert [r.request_id for r in fresh.registered_requests()] == live
    minted = [fresh.request("app", "/p", cpu_window(0.0, 10.0))
              for _ in range(more)]
    assert len(set(minted)) == more
    assert not set(minted) & set(issued)  # dropped ids are never reused

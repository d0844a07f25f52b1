import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelpipe.ocl import (
    BarrierDivergenceError,
    Buffer,
    CommandQueue,
    CONSTANT,
    KernelDef,
    LOCAL,
    NdRange,
    ParallelMode,
    PRIVATE,
    QueueError,
    AccessScope,
    RegionAccessViolation,
    check_region_access,
)
import kernelpipe
from kernelpipe import ocl, tensors
from kernelpipe.netdef import lenet5_spec
from kernelpipe.perf import (ALTERA, kernel_footprint, pipes_feasible, platform_catalog,
                             saturation_lanes)
from kernelpipe.tensors import QFormat
from kernelpipe.ocl.kernel import group_schedule
from kernelpipe.ocl import memory
from kernelpipe.ocl.memory import HOST_SCOPE


class TestNdRange:
    def test_workgroup_grid(self):
        nd = NdRange((24, 24), (8, 8))
        assert nd.group_counts == (3, 3)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            NdRange((10,), (4,))

    def test_identity_decomposition(self):
        nd = NdRange((576,), (576,))
        assert nd.group_counts == (1,)

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            NdRange((0,), (1,))

    def test_dims_bounds(self):
        with pytest.raises(ValueError):
            NdRange((2, 2, 2, 2), (1, 1, 1, 1))


def run_single(kernel, nd):
    q = CommandQueue()
    q.enqueue_kernel(kernel, nd)
    return q.run()


class TestCoverage:
    @pytest.mark.parametrize("gsz,lsz", [((24, 24), (8, 8)), ((6, 4, 2), (3, 2, 1)),
                                         ((64,), (16,))])
    def test_each_global_index_visited_once(self, gsz, lsz):
        marks = Buffer("marks", gsz)

        def body(ctx):
            marks.write(ctx.global_id, marks.read(ctx.global_id) + 1)

        run_single(KernelDef("mark", body, bindings={"marks": marks}), NdRange(gsz, lsz))
        assert np.all(marks.array == 1)

    def test_coverage_under_cu_replication(self):
        marks = Buffer("marks", (24, 24))

        def body(ctx):
            marks.write(ctx.global_id, marks.read(ctx.global_id) + 1)

        kernel = KernelDef("mark", body, bindings={"marks": marks},
                           mode=ParallelMode("simd", 4, cu_count=3))
        run_single(kernel, NdRange((24, 24), (8, 8)))
        assert np.all(marks.array == 1)


class TestGroupSchedule:
    def test_single_cu_is_lexicographic(self):
        nd = NdRange((8,), (2,))
        assert group_schedule(nd, 1) == [(0,), (1,), (2,), (3,)]

    def test_multi_cu_is_permutation(self):
        nd = NdRange((16, 4), (2, 2))
        for cu in (2, 3, 4):
            order = group_schedule(nd, cu)
            assert sorted(order) == sorted(nd.group_ids())

    def test_multi_cu_changes_order(self):
        nd = NdRange((16,), (2,))
        assert group_schedule(nd, 4) != group_schedule(nd, 1)


class TestQueueOrdering:
    def test_trace_order_equals_enqueue_order(self):
        out = Buffer("out", 8)
        trace = []

        def make(name):
            def body(ctx):
                if ctx.global_id == (0,):
                    trace.append(name)
            return body

        q = CommandQueue()
        for name in ("a", "b"):
            q.enqueue_kernel(KernelDef(name, make(name), bindings={"out": out}),
                             NdRange((4,), (4,)))
        records = q.run()
        assert trace == ["a", "b"]
        assert [r.name for r in records] == ["a", "b"]
        assert [r.command_index for r in records] == [0, 1]

    def test_event_chain_runs_in_order(self):
        out = Buffer("out", 8)
        trace = []

        def make(name):
            def body(ctx):
                if ctx.global_id == (0,):
                    trace.append(name)
            return body

        names = ["s1", "s2", "s3", "s4", "s5"]
        q = CommandQueue()
        ev = None
        for name in names:
            waits = [ev] if ev else []
            ev = q.enqueue_kernel(KernelDef(name, make(name), bindings={"out": out}),
                                  NdRange((2,), (2,)), waits=waits)
        records = q.run()
        assert trace == names
        # event safety: every wait fired strictly before the waiter started
        for rec in records:
            assert all(pos < rec.command_index for pos in rec.wait_positions)

    def test_empty_waitlist_runs_immediately(self):
        out = Buffer("out", 4)

        def body(ctx):
            out.write(ctx.global_id, 1)

        records = run_single(KernelDef("k", body, bindings={"out": out}),
                             NdRange((4,), (2,)))
        assert records[0].command_index == 0

    def test_foreign_event_rejected(self):
        q1, q2 = CommandQueue(), CommandQueue()
        out = Buffer("out", 4)

        def body(ctx):
            pass

        ev = q2.enqueue_kernel(KernelDef("k", body, bindings={"out": out}),
                               NdRange((2,), (2,)))
        with pytest.raises(QueueError, match="different queue"):
            q1.enqueue_kernel(KernelDef("k", body, bindings={"out": out}),
                              NdRange((2,), (2,)), waits=[ev])

    def test_foreign_event_with_valid_index_rejected(self):
        # q1 has a command 0 too, so the event's identity, not its
        # position, decides whose it is
        q1, q2 = CommandQueue(), CommandQueue()
        out = Buffer("out", 4)
        ev = q2.enqueue_write(out, np.ones(4))
        q1.enqueue_write(out, np.ones(4))
        assert ev.command_index == 0
        with pytest.raises(QueueError, match="different queue"):
            q1.enqueue_read(out, waits=[ev])

    def test_each_command_has_its_own_event(self):
        out = Buffer("out", 4)
        q = CommandQueue()
        ev_w = q.enqueue_write(out, np.arange(4))
        ev_k = q.enqueue_kernel(
            KernelDef("k", lambda ctx: out.write(ctx.global_id, out.read(ctx.global_id) + 1),
                      bindings={"out": out}),
            NdRange((4,), (2,)), waits=[ev_w])
        ev_r = q.enqueue_read(out, waits=[ev_w, ev_k])
        events = [ev_w, ev_k, ev_r]
        assert [ev.command_index for ev in events] == [0, 1, 2]
        assert len({id(ev) for ev in events}) == 3
        assert not any(ev.fired for ev in events)
        records = q.run()
        assert all(ev.fired for ev in events)
        assert [r.wait_positions for r in records] == [(), (0,), (0, 1)]
        assert records[2].data.tolist() == [1, 2, 3, 4]

    def test_run_returns_the_enqueued_events(self):
        # an event is its command's record: run fills and returns the very
        # objects the enqueues returned
        out = Buffer("out", 4)

        def body(ctx):
            out.write(ctx.global_id, out.read(ctx.global_id) + 1)
            ctx.count_macs(3)

        q = CommandQueue()
        ev_w = q.enqueue_write(out, np.arange(4))
        ev_k = q.enqueue_kernel(KernelDef("k", body, bindings={"out": out}),
                                NdRange((4,), (2,)), waits=[ev_w])
        ev_r = q.enqueue_read(out, waits=[ev_k])
        events = q.run()
        assert len(events) == 3
        assert all(got is want for got, want in zip(events, [ev_w, ev_k, ev_r]))
        assert all(ev.fired for ev in events)
        assert [(ev.kind, ev.name) for ev in events] == [
            ("write", "write:out"), ("kernel", "k"), ("read", "read:out")]
        assert [(ev.unique_bytes_read, ev.unique_bytes_written, ev.macs) for ev in events] == [
            (0, 32, 0), (32, 32, 12), (32, 0, 0)]
        assert ev_w.data is None and ev_k.data is None
        assert ev_r.data.tolist() == [1, 2, 3, 4]

    def test_removed_host_api_is_gone(self):
        # one event per command and one host write path
        assert not hasattr(CommandQueue, "reserve_event")
        assert not hasattr(CommandQueue, "enqueue_marker")
        assert not hasattr(ocl, "QueueDeadlockError")
        assert not hasattr(Buffer, "host_init")
        assert not hasattr(CommandQueue().enqueue_write(Buffer("b", 4), np.ones(4)), "queue")
        with pytest.raises(TypeError):
            NdRange((4,), (2,), offset=(1,))
        with pytest.raises(TypeError):
            CommandQueue().enqueue_read(Buffer("b", 4), event=None)
        # one object per command, and an NDRange keeps what the scheduler reads
        assert not hasattr(ocl, "CommandRecord")
        assert not any(hasattr(ocl.queue, name) for name in ("CommandRecord", "_Command"))
        for name in ("dims", "num_groups", "items_per_group", "total_items"):
            assert not hasattr(NdRange((4,), (2,)), name), name
        # options no caller set
        fp = kernel_footprint(lenet5_spec(), "conv2", QFormat(16, 8))
        altera = platform_catalog()[ALTERA]
        with pytest.raises(TypeError):
            saturation_lanes(fp, altera, cu_count=2)
        with pytest.raises(TypeError):
            pipes_feasible(10, 72, altera, used_kb=1.0)
        # shapes are plain tuples
        assert not hasattr(tensors, "Shape") and not hasattr(kernelpipe, "Shape")

    def test_empty_queue_rejected(self):
        with pytest.raises(QueueError, match="empty"):
            CommandQueue().run()

    def test_ran_queue_freed_by_refcount(self):
        # events do not refer to their queue, so a queue that has run is
        # freed when its last reference goes, without the cyclic GC
        gc.disable()
        try:
            out = Buffer("out", 4)
            q = CommandQueue()
            ev = q.enqueue_write(out, np.ones(4))
            q.enqueue_kernel(KernelDef("k", lambda ctx: None, bindings={"out": out}),
                             NdRange((2,), (2,)), waits=[ev])
            q.run()
            ref = weakref.ref(q)
            del q
            assert ref() is None
        finally:
            gc.enable()


class TestBarriers:
    def test_all_items_proceed(self):
        out = Buffer("out", 64)

        def body(ctx):
            # rotate values through local memory: write, barrier, read neighbor
            lid = ctx.local_id[0]
            ctx.regions["scratch"].write(lid, lid)
            yield
            neighbor = ctx.regions["scratch"].read((lid + 1) % 64)
            out.write(ctx.global_id, neighbor)

        kernel = KernelDef("rotate", body, bindings={"out": out},
                           local_specs={"scratch": (64, np.int64)})
        run_single(kernel, NdRange((64,), (64,)))
        assert out.array.tolist() == [(i + 1) % 64 for i in range(64)]

    def test_divergence_detected(self):
        out = Buffer("out", 64)

        def body(ctx):
            if ctx.local_id[0] != 63:  # one item of 64 skips the barrier
                yield

        kernel = KernelDef("diverge", body, bindings={"out": out})
        with pytest.raises(BarrierDivergenceError, match="63 of 64"):
            run_single(kernel, NdRange((64,), (64,)))

    def test_mismatched_barrier_counts_detected(self):
        out = Buffer("out", 4)

        def body(ctx):
            yield
            if ctx.local_id[0] == 0:
                yield

        kernel = KernelDef("extra", body, bindings={"out": out})
        with pytest.raises(BarrierDivergenceError):
            run_single(kernel, NdRange((4,), (4,)))

    def test_single_item_group_is_noop(self):
        out = Buffer("out", 4)

        def body(ctx):
            yield
            out.write(ctx.global_id, 1)

        run_single(KernelDef("solo", body, bindings={"out": out}), NdRange((4,), (1,)))
        assert np.all(out.array == 1)


class TestRegionAccess:
    def test_private_region_rules(self):
        region = Buffer("p", 4, kind=PRIVATE, owner_item=(3,))
        owner = AccessScope("item", group_id=(0,), item_id=(3,))
        other = AccessScope("item", group_id=(0,), item_id=(7,))
        assert check_region_access(region, owner, "read") is None
        violation = check_region_access(region, other, "read")
        assert isinstance(violation, RegionAccessViolation)

    def test_local_region_rules(self):
        region = Buffer("l", 4, kind=LOCAL, owner_group=(1,))
        same = AccessScope("item", group_id=(1,), item_id=(9,))
        other = AccessScope("item", group_id=(2,), item_id=(9,))
        assert check_region_access(region, same, "write") is None
        assert isinstance(check_region_access(region, other, "write"),
                          RegionAccessViolation)

    def test_constant_readable_by_items(self):
        region = Buffer("c", 4, kind=CONSTANT)
        region.freeze()
        scope = AccessScope("item", group_id=(0,), item_id=(0,))
        assert check_region_access(region, scope, "read") is None

    def test_constant_not_writable_by_items(self):
        region = Buffer("c", 4, kind=CONSTANT)
        scope = AccessScope("item", group_id=(0,), item_id=(0,))
        assert isinstance(check_region_access(region, scope, "write"),
                          RegionAccessViolation)

    def test_host_write_after_launch_is_violation(self):
        region = Buffer("c", 4, kind=CONSTANT)
        region.write(Ellipsis, [1, 2, 3, 4])  # fine before launch
        assert check_region_access(region, HOST_SCOPE, "write") is None
        region.freeze()
        assert isinstance(check_region_access(region, HOST_SCOPE, "write"),
                          RegionAccessViolation)
        with pytest.raises(RegionAccessViolation):
            region.write(Ellipsis, [5, 6, 7, 8])

    def test_enqueue_freezes_constant(self):
        table = Buffer("table", 4, kind=CONSTANT)
        table.write(Ellipsis, [1, 2, 3, 4])
        out = Buffer("out", 4)

        def body(ctx):
            out.write(ctx.global_id, ctx.regions["table"].read(ctx.global_id[0]))

        q = CommandQueue()
        q.enqueue_kernel(KernelDef("lut", body,
                                   bindings={"table": table, "out": out}),
                         NdRange((4,), (2,)))
        with pytest.raises(RegionAccessViolation):
            table.write(Ellipsis, [9, 9, 9, 9])
        q.run()
        assert out.array.tolist() == [1, 2, 3, 4]

    def test_write_enqueued_before_kernel_runs(self):
        # the in-order queue runs the copy before the kernel that freezes
        # the region, so the host write is allowed
        table = Buffer("table", 4, kind=CONSTANT)
        out = Buffer("out", 4)

        def body(ctx):
            out.write(ctx.global_id, ctx.regions["table"].read(ctx.global_id[0]))

        q = CommandQueue()
        ev = q.enqueue_write(table, np.array([1, 2, 3, 4]))
        q.enqueue_kernel(KernelDef("lut", body, bindings={"table": table, "out": out}),
                         NdRange((4,), (2,)), waits=[ev])
        q.run()
        assert out.array.tolist() == [1, 2, 3, 4]

    def test_write_enqueued_after_kernel_rejected_at_enqueue(self):
        table = Buffer("table", 4, kind=CONSTANT)
        q = CommandQueue()
        q.enqueue_kernel(KernelDef("lut", lambda ctx: None, bindings={"table": table}),
                         NdRange((4,), (2,)))
        with pytest.raises(RegionAccessViolation, match="frozen after kernel launch"):
            q.enqueue_write(table, np.ones(4))
        q.run()
        assert not table.array.any()

    @pytest.mark.parametrize("region", [Buffer("l", 4, kind=LOCAL, owner_group=(0,)),
                                        Buffer("p", 4, kind=PRIVATE, owner_item=(0,))],
                             ids=[LOCAL, PRIVATE])
    def test_host_transfer_into_item_region_rejected_at_enqueue(self, region):
        with pytest.raises(RegionAccessViolation, match=f"write of {region.kind} region"):
            CommandQueue().enqueue_write(region, np.ones(4))

    def test_violation_aborts_kernel(self):
        # a work-item reaches for another item's private region
        foreign = Buffer("p", 4, kind=PRIVATE, owner_item=(7,))
        out = Buffer("out", 4)

        def body(ctx):
            foreign.read(0)

        q = CommandQueue()
        q.enqueue_kernel(KernelDef("bad", body, bindings={"out": out}),
                         NdRange((4,), (2,)))
        with pytest.raises(RegionAccessViolation):
            q.run()

    def test_local_region_kept_across_groups_is_violation(self):
        # group 1 reads group 0's local region through a reference group 0 kept
        out = Buffer("out", 4)
        kept = []

        def body(ctx):
            if not kept:
                kept.append(ctx.regions["scratch"])
            if ctx.group_id == (0,):
                kept[0].write(ctx.local_id[0], 7)
            else:
                out.write(ctx.global_id, kept[0].read(ctx.local_id[0]))

        kernel = KernelDef("keep", body, bindings={"out": out},
                           local_specs={"scratch": (2, np.int64)})
        with pytest.raises(RegionAccessViolation, match="local region 'scratch'") as exc:
            run_single(kernel, NdRange((4,), (2,)))
        assert exc.value.scope == AccessScope("item", (1,), (2,))
        assert out.array.tolist() == [0, 0, 0, 0]

    def test_item_write_to_closed_over_constant_is_violation(self):
        table = Buffer("table", 4, kind=CONSTANT)
        table.write(Ellipsis, [1, 2, 3, 4])
        out = Buffer("out", 4)

        def body(ctx):
            table.write(ctx.global_id, 0)

        kernel = KernelDef("poke", body, bindings={"table": table, "out": out})
        with pytest.raises(RegionAccessViolation, match="work-items may not write"):
            run_single(kernel, NdRange((4,), (2,)))
        assert table.array.tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("region", [Buffer("l", 4, kind=LOCAL, owner_group=(0,)),
                                        Buffer("p", 4, kind=PRIVATE, owner_item=(0,))],
                             ids=[LOCAL, PRIVATE])
    def test_host_access_outside_kernel_is_violation(self, region):
        with pytest.raises(RegionAccessViolation, match=f"read of {region.kind} region"):
            region.read(0)
        with pytest.raises(RegionAccessViolation, match=f"write of {region.kind} region"):
            region.write(0, 1)

    def test_accessor_restored_after_abort(self):
        foreign = Buffer("p", 4, kind=PRIVATE, owner_item=(7,))
        out = Buffer("out", 4)
        q = CommandQueue()
        q.enqueue_kernel(KernelDef("bad", lambda ctx: foreign.read(0),
                                   bindings={"out": out}), NdRange((4,), (2,)))
        with pytest.raises(RegionAccessViolation):
            q.run()
        assert memory.current_accessor is HOST_SCOPE
        table = Buffer("table", 4, kind=CONSTANT)
        table.write(Ellipsis, [1, 2, 3, 4])
        table.write(0, 5)  # checked against the current accessor: the host again
        assert table.array.tolist() == [5, 2, 3, 4]

    def test_private_specs_isolated_per_item(self):
        out = Buffer("out", 8)

        def body(ctx):
            scratch = ctx.regions["scratch"]
            scratch.write(0, ctx.global_id[0] * 10)
            out.write(ctx.global_id, scratch.read(0))

        kernel = KernelDef("priv", body, bindings={"out": out},
                           private_specs={"scratch": (1, np.int64)})
        run_single(kernel, NdRange((8,), (4,)))
        assert out.array.tolist() == [i * 10 for i in range(8)]

    @pytest.mark.parametrize("name,specs", [
        ("out", {"local_specs": {"out": (4, np.int64)}}),
        ("out", {"private_specs": {"out": (4, np.int64)}}),
        ("scratch", {"local_specs": {"scratch": (4, np.int64)},
                     "private_specs": {"scratch": (4, np.int64)}}),
    ])
    def test_spec_shadowing_a_region_rejected(self, name, specs):
        # a local/private spec named like a binding would hide the global
        # buffer from every work-item
        out = Buffer("out", 4)
        with pytest.raises(ValueError, match=f"region '{name}' is declared more than once"):
            KernelDef("k", lambda ctx: None, bindings={"out": out}, **specs)

    @pytest.mark.parametrize("kind", ["local_specs", "private_specs"])
    @pytest.mark.parametrize("count", [0, -1, 2.0, True, "4",
                                       (), (4, 0), (4, -1), (2.0, 4), (True, 4), (4, "4")])
    def test_spec_count_must_be_positive_int(self, kind, count):
        with pytest.raises(ValueError, match="region 'scratch'.*positive int"):
            KernelDef("k", lambda ctx: None, **{kind: {"scratch": (count, np.int64)}})

    @pytest.mark.parametrize("kind", ["local_specs", "private_specs"])
    @pytest.mark.parametrize("dtype", [np.int32, np.float32, bool, "int64", None])
    def test_spec_dtype_must_be_int64_or_float64(self, kind, dtype):
        with pytest.raises(ValueError, match="region 'scratch'.*int64 or float64"):
            KernelDef("k", lambda ctx: None, **{kind: {"scratch": (4, dtype)}})

    @pytest.mark.parametrize("kind", ["local_specs", "private_specs"])
    @pytest.mark.parametrize("spec", [4, (4,), [4, np.int64], (4, np.int64, 1)])
    def test_spec_is_one_count_dtype_pair(self, kind, spec):
        # OpenCL local/private arrays are typed: a bare count is not a spec
        with pytest.raises(ValueError, match=r"region 'scratch'.*\(element count, dtype\)"):
            KernelDef("k", lambda ctx: None, **{kind: {"scratch": spec}})

    @pytest.mark.parametrize("kind", ["local_specs", "private_specs"])
    @pytest.mark.parametrize("shape,extents", [(2, (2,)), ((2, 3), (2, 3))],
                             ids=["count", "shaped"])
    def test_regions_take_their_spec_dtype(self, kind, shape, extents):
        out = Buffer("out", 4, dtype=np.float64)
        seen = []

        def probe(ctx):
            scratch = ctx.regions["scratch"]
            scratch.write(0, 0.5)
            region = scratch.read(Ellipsis)
            seen.append((region.shape, region.dtype))
            out.write(ctx.global_id, region.max())

        run_single(KernelDef("typed", probe, bindings={"out": out},
                             **{kind: {"scratch": (shape, np.float64)}}),
                   NdRange((4,), (4,)))
        assert set(seen) == {(extents, np.dtype(np.float64))}
        assert out.array.tolist() == [0.5] * 4


@st.composite
def touch_keys(draw, shape):
    """One numpy key into ``shape``: the whole region, a slice, an int, an
    index array with repeats, a bool mask or (2-D) a column selection."""
    n = shape[0]
    kind = draw(st.sampled_from(["whole", "slice", "int", "index", "mask"]
                                + (["columns"] if len(shape) == 2 else [])))
    if kind == "whole":
        return Ellipsis
    if kind == "slice":
        return slice(draw(st.integers(-n, n + 1)), draw(st.integers(-n, n + 1)),
                     draw(st.sampled_from([None, 1, 2, -1])))
    if kind == "int":
        return draw(st.integers(-n, n - 1))
    if kind == "index":
        return np.array(draw(st.lists(st.integers(-n, n - 1), max_size=6)), dtype=np.int64)
    if kind == "mask":
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(shape)
    m = shape[1]
    return (slice(None),
            np.array(draw(st.lists(st.integers(-m, m - 1), min_size=1, max_size=4)), dtype=np.int64))


@st.composite
def touch_programs(draw):
    """A 1-D or 2-D global buffer, its element width, whether the kernel
    binds it, and 1-8 reads or writes of it, closing with a whole-region
    access half the time so a whole key often follows a partial one."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 6)),
                           st.tuples(st.integers(1, 4), st.integers(1, 4))))
    ops = st.sampled_from(["read", "write"])
    accesses = draw(st.lists(st.tuples(ops, touch_keys(shape)), min_size=1, max_size=7))
    if draw(st.booleans()):
        accesses.append((draw(ops), Ellipsis))
    return shape, draw(st.sampled_from([1, 2, 4])), draw(st.booleans()), accesses


class TestAccessAccounting:
    def test_unique_bytes_are_first_touch(self):
        src = Buffer("src", 16, element_bytes=2)
        dst = Buffer("dst", 16, element_bytes=2)

        def body(ctx):
            total = src.read(slice(None)).sum()  # every item reads all 16
            dst.write(ctx.global_id, total)

        records = run_single(KernelDef("sumall", body, bindings={"src": src, "dst": dst}),
                             NdRange((16,), (4,)))
        assert records[0].unique_bytes_read == 16 * 2  # cached convention
        assert records[0].unique_bytes_written == 16 * 2

    def test_transfer_bytes_counted(self):
        buf = Buffer("buf", 32, element_bytes=2)
        q = CommandQueue()
        q.enqueue_write(buf, np.arange(32))
        ev = q.enqueue_read(buf)
        records = q.run()
        assert records[0].unique_bytes_written == 32 * 2
        assert records[1].unique_bytes_read == 32 * 2
        assert records[1].data.tolist() == list(range(32))
        assert type(records[0].unique_bytes_written) is int
        assert ev.fired

    def test_local_and_private_not_in_global_stats(self):
        out = Buffer("out", 4, element_bytes=2)

        def body(ctx):
            scratch = ctx.regions["scratch"]
            scratch.write(ctx.local_id[0], 1)
            yield
            out.write(ctx.global_id, scratch.read(ctx.local_id[0]))

        kernel = KernelDef("k", body, bindings={"out": out},
                           local_specs={"scratch": (4, np.int64)})
        records = run_single(kernel, NdRange((4,), (4,)))
        assert records[0].unique_bytes_read == 0          # only local reads happened
        assert records[0].unique_bytes_written == 4 * 2   # the global stores

    def test_unbound_global_buffer_counted(self):
        # a global buffer the body closes over is device memory all the same
        out = Buffer("out", 4, element_bytes=2)
        hidden = Buffer("hidden", 8, dtype=np.int16)

        def body(ctx):
            out.write(ctx.global_ids[:, 0], hidden.read(Ellipsis).sum())
            hidden.write(slice(0, 3), 1)

        (ev,) = run_single(KernelDef("closure", body, bindings={"out": out}, lockstep=True),
                           NdRange((4,), (4,)))
        assert ev.unique_bytes_read == 8 * 2
        assert ev.unique_bytes_written == 4 * 2 + 3 * 2

    def test_record_closed_after_abort(self):
        buf = Buffer("buf", 8, element_bytes=2)
        foreign = Buffer("p", 4, kind=PRIVATE, owner_item=(7,))

        def bad(ctx):
            buf.read(slice(0, 6))
            buf.write(Ellipsis, 1)
            foreign.read(0)

        q = CommandQueue()
        q.enqueue_kernel(KernelDef("bad", bad, bindings={"buf": buf}), NdRange((4,), (2,)))
        with pytest.raises(RegionAccessViolation):
            q.run()
        assert memory.touches is None
        buf.write(Ellipsis, 2)  # a host access outside a command is not recorded
        assert memory.touches is None

        def good(ctx):
            buf.read(slice(2, 5))
            buf.write(7, 1)

        (ev,) = run_single(KernelDef("good", good, bindings={"buf": buf}, lockstep=True),
                           NdRange((1,), (1,)))
        assert (ev.unique_bytes_read, ev.unique_bytes_written) == (3 * 2, 1 * 2)

    @settings(max_examples=60, deadline=None)
    @given(touch_programs())
    def test_counts_match_plain_masks(self, case):
        shape, element_bytes, bound, accesses = case
        buf = Buffer("buf", shape, element_bytes=element_bytes)
        oracle = {"read": np.zeros(shape, dtype=bool), "write": np.zeros(shape, dtype=bool)}
        for op, key in accesses:
            oracle[op][key] = True

        def body(ctx):
            for op, key in copy.deepcopy(accesses):
                if op == "read":
                    buf.read(key)
                else:
                    buf.write(key, 1)
                for part in key if isinstance(key, tuple) else (key,):
                    if isinstance(part, np.ndarray):
                        part[...] = 0  # a later change to a key must not move the count

        kernel = KernelDef("touch", body, bindings={"buf": buf} if bound else {}, lockstep=True)
        (ev,) = run_single(kernel, NdRange((1,), (1,)))
        assert ev.unique_bytes_read == np.count_nonzero(oracle["read"]) * element_bytes
        assert ev.unique_bytes_written == np.count_nonzero(oracle["write"]) * element_bytes
        assert type(ev.unique_bytes_read) is type(ev.unique_bytes_written) is int


#: Per-lane program steps ``(op, a, b)``, with g and l the lane's global and
#: local id: "src" adds src[(g + a) % n], "slice" adds the sum of
#: src[a:a + b], "back" adds dst[g], "own" adds scratch[l], "peer" adds
#: scratch[(l + a) % local], "put" stores scratch[l], "out" stores dst[g] and
#: "macs" counts ``a`` MACs.  Every lane writes only its own slots, and
#: "peer" reads only after the barrier, where no lane writes scratch, so the
#: program has no data race and any legal item order gives one result.
BEFORE_BARRIER = ("src", "slice", "back", "own", "put", "out", "macs")
AFTER_BARRIER = ("src", "slice", "back", "own", "peer", "out", "macs")


def program_steps(ops):
    return st.lists(st.tuples(st.sampled_from(ops), st.integers(0, 70), st.integers(0, 8)),
                    max_size=6)


@st.composite
def lane_programs(draw):
    items = draw(st.integers(1, 64))
    local = draw(st.sampled_from([d for d in range(1, items + 1) if items % d == 0]))
    barrier = draw(st.booleans())
    return (items, local, draw(st.integers(1, 4)), draw(program_steps(BEFORE_BARRIER)),
            draw(program_steps(AFTER_BARRIER)) if barrier else None)


def run_lane_program(case, lockstep):
    """Run a drawn program as a per-item or a lockstep body; returns dst and
    each command's (first-touch bytes read, written, MACs)."""
    items, local, cu_count, before, after = case

    def steps(ctx, ops, acc):
        if lockstep:
            g, l = ctx.global_ids[:, 0], ctx.local_ids[:, 0]
        else:
            (g,), (l,) = ctx.global_id, ctx.local_id
        src, dst, scratch = (ctx.regions[name] for name in ("src", "dst", "scratch"))
        for op, a, b in ops:
            if op == "src":
                acc = acc + src.read((g + a) % items)
            elif op == "slice":
                acc = acc + src.read(slice(a, a + b)).sum()
            elif op == "back":
                acc = acc + dst.read(g)
            elif op == "own":
                acc = acc + scratch.read(l)
            elif op == "peer":
                acc = acc + scratch.read((l + a) % local)
            elif op == "put":
                scratch.write(l, acc)
            elif op == "out":
                dst.write(g, acc)
            else:
                ctx.count_macs(a * np.size(g))
        return acc

    if after is None:
        def body(ctx):
            steps(ctx, before, 0)
    else:
        def body(ctx):
            acc = steps(ctx, before, 0)
            yield
            steps(ctx, after, acc)

    src, dst = Buffer("src", items, element_bytes=2), Buffer("dst", items, element_bytes=2)
    q = CommandQueue()
    upload = q.enqueue_write(src, np.arange(items) * 3 + 1)
    kernel = KernelDef("program", body, bindings={"src": src, "dst": dst},
                       local_specs={"scratch": (local, np.int64)},
                       mode=ParallelMode(cu_count=cu_count), lockstep=lockstep)
    q.enqueue_kernel(kernel, NdRange((items,), (local,)), waits=[upload])
    q.enqueue_read(dst)
    events = q.run()
    return events[-1].data, [(ev.unique_bytes_read, ev.unique_bytes_written, ev.macs)
                             for ev in events]


class TestLockstep:
    @settings(max_examples=60)
    @given(lane_programs())
    def test_body_forms_agree(self, case):
        per_item_dst, per_item_counts = run_lane_program(case, lockstep=False)
        lockstep_dst, lockstep_counts = run_lane_program(case, lockstep=True)
        assert lockstep_dst.tolist() == per_item_dst.tolist()
        assert lockstep_counts == per_item_counts

    def test_body_called_once_per_group(self):
        nd = NdRange((4, 6), (2, 3))
        calls = []

        def body(ctx):
            calls.append((ctx.group_id, ctx.global_ids.tolist(), ctx.local_ids.tolist()))

        run_single(KernelDef("lanes", body, mode=ParallelMode(cu_count=3), lockstep=True), nd)
        assert [group for group, _, _ in calls] == group_schedule(nd, 3)
        lanes = [list(local) for local in nd.local_ids()]
        for group, global_ids, local_ids in calls:
            assert local_ids == lanes
            assert global_ids == [list(nd.global_id(group, local)) for local in nd.local_ids()]

    def test_own_group_local_region(self):
        out = Buffer("out", 8)

        def body(ctx):
            lid = ctx.local_ids[:, 0]
            scratch = ctx.regions["scratch"]
            scratch.write(lid, ctx.global_ids[:, 0] * 10)
            yield
            out.write(ctx.global_ids[:, 0], scratch.read((lid + 1) % 4))

        kernel = KernelDef("rotate", body, bindings={"out": out},
                           local_specs={"scratch": (4, np.int64)}, lockstep=True)
        run_single(kernel, NdRange((8,), (4,)))
        assert out.array.tolist() == [10, 20, 30, 0, 50, 60, 70, 40]

    def test_group_scope_rules(self):
        scope = AccessScope("group", group_id=(1,))
        assert check_region_access(Buffer("l", 4, kind=LOCAL, owner_group=(1,)),
                                   scope, "write") is None
        assert check_region_access(Buffer("c", 4, kind=CONSTANT), scope, "read") is None
        for region, op in ((Buffer("l", 4, kind=LOCAL, owner_group=(2,)), "read"),
                           (Buffer("p", 4, kind=PRIVATE, owner_item=(1,)), "read"),
                           (Buffer("c", 4, kind=CONSTANT), "write")):
            assert isinstance(check_region_access(region, scope, op), RegionAccessViolation)

    def test_constant_write_is_violation(self):
        table = Buffer("table", 4, kind=CONSTANT)
        table.write(Ellipsis, [1, 2, 3, 4])

        def body(ctx):
            table.write(ctx.global_ids[:, 0], 0)

        kernel = KernelDef("poke", body, bindings={"table": table}, lockstep=True)
        with pytest.raises(RegionAccessViolation, match="work-items may not write") as exc:
            run_single(kernel, NdRange((4,), (2,)))
        assert exc.value.scope == AccessScope("group", (0,))
        assert table.array.tolist() == [1, 2, 3, 4]
        assert memory.current_accessor is HOST_SCOPE

    def test_local_region_kept_across_groups_is_violation(self):
        # group 1 reads group 0's local region through a reference group 0 kept
        out = Buffer("out", 4)
        kept = []

        def body(ctx):
            kept.append(ctx.regions["scratch"])
            lid = ctx.local_ids[:, 0]
            if ctx.group_id == (0,):
                kept[0].write(lid, 7)
            else:
                out.write(ctx.global_ids[:, 0], kept[0].read(lid))

        kernel = KernelDef("keep", body, bindings={"out": out},
                           local_specs={"scratch": (2, np.int64)}, lockstep=True)
        with pytest.raises(RegionAccessViolation, match="local region 'scratch'") as exc:
            run_single(kernel, NdRange((4,), (2,)))
        assert exc.value.scope == AccessScope("group", (1,))
        assert out.array.tolist() == [0, 0, 0, 0]

    def test_private_regions_rejected(self):
        with pytest.raises(ValueError, match="lockstep body has no private regions"):
            KernelDef("k", lambda ctx: None, private_specs={"p": (1, np.int64)},
                      lockstep=True)


class TestModeDeterminism:
    def test_values_identical_across_modes(self):
        # order-independent kernel: each item owns one output element
        src = Buffer("src", (8, 8))
        src.write(Ellipsis, np.arange(64).reshape(8, 8))
        modes = [ParallelMode(), ParallelMode("unroll", 4),
                 ParallelMode("simd", 8), ParallelMode("none", cu_count=4),
                 ParallelMode("simd", 8, cu_count=2)]
        outputs = []
        for mode in modes:
            dst = Buffer("dst", (8, 8))

            def body(ctx):
                x, y = ctx.global_id
                dst.write((x, y), src.read((x, y)) * 2 + 1)

            run_single(KernelDef("twice", body, bindings={"src": src, "dst": dst},
                                 mode=mode), NdRange((8, 8), (2, 2)))
            outputs.append(dst.array.copy())
        for out in outputs[1:]:
            assert np.array_equal(out, outputs[0])


class TestParallelMode:
    def test_lanes(self):
        assert ParallelMode().lanes == 1
        assert ParallelMode("unroll", 4).lanes == 4
        assert ParallelMode("simd", 16).lanes == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelMode("vector", 2)
        with pytest.raises(ValueError):
            ParallelMode("simd", 0)
        with pytest.raises(ValueError):
            ParallelMode("none", 2)

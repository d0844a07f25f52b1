import gc
import weakref

import numpy as np
import pytest

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
    QueueDeadlockError,
    QueueError,
    AccessScope,
    RegionAccessViolation,
    check_region_access,
)
from kernelpipe.ocl.kernel import group_schedule
from kernelpipe.ocl import memory
from kernelpipe.ocl.memory import HOST_SCOPE


class TestNdRange:
    def test_workgroup_grid(self):
        nd = NdRange((24, 24), (8, 8))
        assert nd.group_counts == (3, 3)
        assert nd.num_groups == 9

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            NdRange((10,), (4,))

    def test_identity_decomposition(self):
        nd = NdRange((576,), (576,))
        assert nd.num_groups == 1
        assert nd.items_per_group == 576

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            NdRange((0,), (1,))

    def test_dims_bounds(self):
        with pytest.raises(ValueError):
            NdRange((2, 2, 2, 2), (1, 1, 1, 1))

    def test_offset_applies_to_global_ids(self):
        nd = NdRange((4,), (2,), offset=(10,))
        assert nd.global_id((1,), (1,)) == (13,)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            NdRange((4,), (2,), offset=(-1,))


def run_single(kernel, nd, **queue_kwargs):
    q = CommandQueue(**queue_kwargs)
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
        assert [r.index for r in records] == [0, 1]

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
            assert all(pos < rec.index for pos in rec.wait_positions)

    def test_empty_waitlist_runs_immediately(self):
        out = Buffer("out", 4)

        def body(ctx):
            out.write(ctx.global_id, 1)

        records = run_single(KernelDef("k", body, bindings={"out": out}),
                             NdRange((4,), (2,)))
        assert records[0].index == 0

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

    def test_dependency_cycle_is_detected_not_hung(self):
        q = CommandQueue()
        out = Buffer("out", 4)

        def body(ctx):
            pass

        ev_a = q.reserve_event()
        ev_b = q.reserve_event()
        q.enqueue_kernel(KernelDef("a", body, bindings={"out": out}),
                         NdRange((2,), (2,)), waits=[ev_b], event=ev_a)
        q.enqueue_kernel(KernelDef("b", body, bindings={"out": out}),
                         NdRange((2,), (2,)), waits=[ev_a], event=ev_b)
        with pytest.raises(QueueDeadlockError):
            q.run()

    def test_empty_queue_rejected(self):
        with pytest.raises(QueueError, match="empty"):
            CommandQueue().run()

    def test_marker_fires_in_order(self):
        out = Buffer("out", 4)
        q = CommandQueue()
        q.enqueue_kernel(KernelDef("k", lambda ctx: None, bindings={"out": out}),
                         NdRange((2,), (2,)))
        ev = q.enqueue_marker()
        records = q.run()
        assert records[-1].kind == "marker"
        assert ev.fired

    def test_ran_queue_freed_by_refcount(self):
        # events refer to their queue weakly, so a queue that has run is
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
            assert ev.queue is None
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
        region.host_init([1, 2, 3, 4])  # fine before launch
        assert check_region_access(region, HOST_SCOPE, "write") is None
        region.freeze()
        assert isinstance(check_region_access(region, HOST_SCOPE, "write"),
                          RegionAccessViolation)
        with pytest.raises(RegionAccessViolation):
            region.host_init([5, 6, 7, 8])

    def test_enqueue_freezes_constant(self):
        table = Buffer("table", 4, kind=CONSTANT)
        table.host_init([1, 2, 3, 4])
        out = Buffer("out", 4)

        def body(ctx):
            out.write(ctx.global_id, ctx.regions["table"].read(ctx.global_id[0]))

        q = CommandQueue()
        q.enqueue_kernel(KernelDef("lut", body,
                                   bindings={"table": table, "out": out}),
                         NdRange((4,), (2,)))
        with pytest.raises(RegionAccessViolation):
            table.host_init([9, 9, 9, 9])
        q.run()
        assert out.array.tolist() == [1, 2, 3, 4]

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
        table.host_init([1, 2, 3, 4])
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
        table.host_init([1, 2, 3, 4])
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
    @pytest.mark.parametrize("count", [0, -1, 2.0, True, "4"])
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
    def test_regions_take_their_spec_dtype(self, kind):
        out = Buffer("out", 4, dtype=np.float64)
        seen = []

        def probe(ctx):
            scratch = ctx.regions["scratch"]
            scratch.write(0, 0.5)
            seen.append(scratch.read(Ellipsis).dtype)
            out.write(ctx.global_id, scratch.read(0))

        run_single(KernelDef("typed", probe, bindings={"out": out},
                             **{kind: {"scratch": (2, np.float64)}}),
                   NdRange((4,), (4,)))
        assert set(seen) == {np.dtype(np.float64)}
        assert out.array.tolist() == [0.5] * 4


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


class TestModeDeterminism:
    def test_values_identical_across_modes(self):
        # order-independent kernel: each item owns one output element
        src = Buffer("src", (8, 8))
        src.host_init(np.arange(64).reshape(8, 8))
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

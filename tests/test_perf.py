import math

import numpy as np
import pytest

from kernelpipe.netdef import lenet5_spec
from kernelpipe.ocl import ParallelMode
from kernelpipe.perf import (
    ALTERA,
    XILINX,
    BenchRecord,
    KernelFootprint,
    acceleration_table,
    estimate_resources,
    estimate_time,
    kernel_footprint,
    pipeline_footprints,
    pipes_feasible,
    pipes_required,
    platform_catalog,
    render_report,
    resolve_platform,
    resource_coeffs,
    saturation_lanes,
    signed_acceleration,
    simulate_stream,
    stream_verdict,
)
from kernelpipe.tensors import QFormat

Q = QFormat(16, 8)
SPEC = lenet5_spec()

# the published per-kernel times, (xilinx triplet, altera triplet), and the
# published signed ratios / percents they must reproduce
PUBLISHED_TIMES = {
    "conv_pool1": ((3.63, 1.96, 1.96), (1.01, 1.01, 0.98)),
    "conv2": ((7.62, 4.92, 4.92), (3.95, 3.96, 4.27)),
    "pool2": ((0.03, 0.06, 0.06), (0.08, 0.07, 0.13)),
    "ip1_relu": ((0.55, 0.55, 0.55), (1.01, 1.81, 2.02)),
    "ip2": ((0.35, 0.35, 0.35), (0.15, 0.14, 0.13)),
}
PUBLISHED_ACCEL = {
    "conv_pool1": ((3.59, 1.94, 2.00), (259, 94, 100)),
    "conv2": ((1.92, 1.24, 1.15), (92, 24, 15)),
    "pool2": ((-2.66, -1.16, -2.16), (-166, -16, -116)),
    "ip1_relu": ((-1.83, -3.29, -3.67), (-83, -229, -267)),
    "ip2": ((2.33, 2.50, 2.69), (133, 150, 169)),
}


def published_bench_records():
    xilinx = [BenchRecord(k, times_ms=t[0], logic_k=(0, 0, 0), dsp=(0, 0, 0),
                          bram_kb=(0, 0, 0)) for k, t in PUBLISHED_TIMES.items()]
    altera = [BenchRecord(k, times_ms=t[1], logic_k=(0, 0, 0), dsp=(0, 0, 0),
                          bram_kb=(0, 0, 0)) for k, t in PUBLISHED_TIMES.items()]
    return xilinx, altera


class TestCatalog:
    def test_altera_logic_and_multipliers(self):
        cfg = platform_catalog()[ALTERA]
        assert cfg.logic_capacity_k == 622
        assert cfg.dsp_capacity == 256
        assert cfg.secondary_multipliers == 512
        assert cfg.bram_capacity_kb == 51200

    def test_xilinx_resources(self):
        cfg = platform_catalog()[XILINX]
        assert cfg.dsp_capacity == 3600
        assert cfg.logic_capacity_k == pytest.approx(693.12)
        assert cfg.bram_capacity_kb == 52920

    def test_xilinx_faster_memory(self):
        cat = platform_catalog()
        assert cat[XILINX].ddr_transfer_rate_mt > cat[ALTERA].ddr_transfer_rate_mt
        assert cat[XILINX].effective_bandwidth > cat[ALTERA].effective_bandwidth

    def test_effective_bandwidth(self):
        cfg = platform_catalog()[ALTERA]
        assert cfg.effective_bandwidth == pytest.approx(800e6 * 8 * 0.7)

    def test_aliases(self):
        assert resolve_platform("altera").name == ALTERA
        assert resolve_platform("xilinx").name == XILINX
        assert resolve_platform(XILINX).name == XILINX
        with pytest.raises(KeyError):
            resolve_platform("arria")

    def test_config_overrides(self):
        cat = platform_catalog({f"platform.{ALTERA}.compute_clock_hz": "3e8"})
        assert cat[ALTERA].compute_clock_hz == 3e8
        assert cat[XILINX].compute_clock_hz == 200e6
        with pytest.raises(KeyError):
            platform_catalog({"platform.unknown_board.dsp_capacity": "1"})
        # coefficient keys belong to resource_coeffs; anything else is unknown
        assert platform_catalog({"coeff.pool2.dsp.base": "7"}) == platform_catalog()
        with pytest.raises(KeyError, match="platfom"):
            platform_catalog({f"platfom.{ALTERA}.dsp_capacity": "1"})
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match="finite"):
                platform_catalog({f"platform.{ALTERA}.compute_clock_hz": value})


class TestFootprints:
    def test_conv2_macs(self):
        assert kernel_footprint(SPEC, "conv2", Q).macs == 1_600_000

    def test_ip2_bytes(self):
        fp = kernel_footprint(SPEC, "ip2", Q)
        assert fp.macs == 5_000
        assert fp.bytes_read == (500 + 5010) * 2
        assert fp.bytes_written == 10 * 2

    def test_pool_stage_has_no_macs_or_weights(self):
        fp = kernel_footprint(SPEC, "pool2", Q)
        assert fp.macs == 0
        assert fp.bytes_read == 3200 * 2  # input only, no weights

    def test_all_stages(self):
        macs = {fp.stage: fp.macs for fp in pipeline_footprints(SPEC, Q)}
        assert macs == {"conv_pool1": 288_000, "conv2": 1_600_000, "pool2": 0,
                        "ip1_relu": 400_000, "ip2": 5_000}

    def test_width_scales_bytes(self):
        narrow = kernel_footprint(SPEC, "ip2", QFormat(8, 4))
        wide = kernel_footprint(SPEC, "ip2", QFormat(32, 16))
        assert wide.bytes_read == 4 * narrow.bytes_read

    def test_unknown_stage(self):
        with pytest.raises(KeyError):
            kernel_footprint(SPEC, "conv9", Q)


def mhz200(**kwargs):
    defaults = dict(name="test", compute_clock_hz=200e6, ddr_transfer_rate_mt=800,
                    ddr_bus_bytes=8, ddr_efficiency=0.7, logic_capacity_k=100,
                    dsp_capacity=100, bram_capacity_kb=1000, lane_budget=4096)
    defaults.update(kwargs)
    return platform_catalog()[ALTERA].__class__(**defaults)


class TestEstimateTime:
    def test_compute_bound_example(self):
        # 10^6 MACs at 200 MHz on one lane, negligible bytes: 5 ms
        fp = KernelFootprint("x", macs=10**6, bytes_read=0, bytes_written=0)
        assert estimate_time(fp, mhz200(), ParallelMode()) == pytest.approx(5.0)

    def test_memory_bound_simd_widening_is_noop(self):
        fp = KernelFootprint("x", macs=10, bytes_read=10**9, bytes_written=0)
        p = mhz200()
        t8 = estimate_time(fp, p, ParallelMode("simd", 8))
        t16 = estimate_time(fp, p, ParallelMode("simd", 16))
        assert t8 == t16

    def test_cu_contention_doubles_memory_term(self):
        fp = KernelFootprint("x", macs=10, bytes_read=10**9, bytes_written=0)
        p = mhz200()
        t1 = estimate_time(fp, p, ParallelMode())
        t2 = estimate_time(fp, p, ParallelMode("none", cu_count=2))
        assert t2 == pytest.approx(2 * t1)

    def test_lane_budget(self):
        fp = KernelFootprint("x", macs=10**6, bytes_read=0, bytes_written=0)
        with pytest.raises(ValueError, match="budget"):
            estimate_time(fp, mhz200(lane_budget=4), ParallelMode("simd", 8))

    def test_monotone_and_saturating(self):
        for platform in platform_catalog().values():
            for fp in pipeline_footprints(SPEC, Q):
                sat = saturation_lanes(fp, platform)
                lanes, times = 1, []
                while lanes <= 4 * sat:
                    times.append(estimate_time(fp, platform, ParallelMode("simd", lanes)))
                    lanes *= 2
                assert all(a >= b for a, b in zip(times, times[1:]))
                assert times[-1] == times[-2]  # flat beyond saturation

    def test_multi_cu_never_beats_simd_at_equal_lanes(self):
        p = platform_catalog()[ALTERA]
        fp = KernelFootprint("x", macs=10**6, bytes_read=10**6, bytes_written=0)
        for total in (4, 16, 64):
            t_simd = estimate_time(fp, p, ParallelMode("simd", total))
            for cu in (2, 4):
                width = total // cu
                t_multi = estimate_time(fp, p, ParallelMode("simd", width, cu_count=cu))
                assert t_multi >= t_simd


class TestEstimateResources:
    def test_single_lane_is_base(self):
        est = estimate_resources("conv2", ParallelMode())
        base = resource_coeffs()["conv2"]
        assert (est.logic_k, est.dsp, est.bram_kb) == (
            base["logic_k"][0], base["dsp"][0], base["bram_kb"][0])

    def test_linear_growth_example(self):
        coeffs = {"conv2": {"logic_k": (3.0, 1.0), "dsp": (4, 2), "bram_kb": (72, 36)}}
        est = estimate_resources("conv2", ParallelMode("simd", 4), coeffs)
        assert (est.logic_k, est.dsp, est.bram_kb) == (6.0, 10, 180)

    def test_zero_increment_is_mode_invariant(self):
        coeffs = {"ip2": {"logic_k": (4.0, 0.0), "dsp": (9, 0), "bram_kb": (72, 0)}}
        a = estimate_resources("ip2", ParallelMode(), coeffs)
        b = estimate_resources("ip2", ParallelMode("simd", 16), coeffs)
        assert (a.logic_k, a.dsp, a.bram_kb) == (b.logic_k, b.dsp, b.bram_kb)

    def test_monotone_in_lanes(self):
        prev = None
        for lanes in (1, 2, 4, 8, 16):
            mode = ParallelMode("simd", lanes) if lanes > 1 else ParallelMode()
            est = estimate_resources("conv_pool1", mode)
            if prev is not None:
                assert est.logic_k >= prev.logic_k
                assert est.dsp >= prev.dsp
                assert est.bram_kb >= prev.bram_kb
            prev = est

    def test_capacity_clamp_flags(self):
        coeffs = {"conv2": {"logic_k": (3.0, 50.0), "dsp": (4, 0), "bram_kb": (72, 0)}}
        est = estimate_resources("conv2", ParallelMode("simd", 16), coeffs,
                                 platform=mhz200(logic_capacity_k=100))
        assert est.over_capacity
        assert est.logic_k == 100

    def test_coeff_overrides(self):
        coeffs = resource_coeffs({"coeff.pool2.dsp.base": "7"})
        assert coeffs["pool2"]["dsp"] == (7.0, 1)
        with pytest.raises(KeyError):
            resource_coeffs({"coeff.pool9.dsp.base": "7"})
        # platform keys belong to platform_catalog; anything else is unknown
        assert resource_coeffs({f"platform.{ALTERA}.dsp_capacity": "1"}) == resource_coeffs()
        with pytest.raises(KeyError, match="coef"):
            resource_coeffs({"coef.pool2.dsp.base": "7"})
        for value in ("nan", "inf"):
            with pytest.raises(ValueError, match="finite"):
                resource_coeffs({"coeff.pool2.dsp.per_lane": value})


class TestSignedAcceleration:
    def test_equal_times(self):
        assert signed_acceleration(1.0, 1.0) == (1.0, 0)

    def test_positive_example(self):
        assert signed_acceleration(3.63, 1.01) == (3.59, 259)

    def test_negative_example(self):
        assert signed_acceleration(0.03, 0.08) == (-2.66, -166)

    def test_truncation_toward_zero(self):
        # 3.594... truncates to 3.59, never rounds up to 3.60
        ratio, _ = signed_acceleration(3.594, 1.0)
        assert ratio == 3.59

    def test_exact_binary_hairline(self):
        assert signed_acceleration(1.96, 0.98) == (2.0, 100)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            signed_acceleration(0.0, 1.0)
        with pytest.raises(ValueError):
            signed_acceleration(1.0, -2.0)

    def test_reproduces_every_published_cell(self):
        for kernel, (tx, ta) in PUBLISHED_TIMES.items():
            exp_r, exp_p = PUBLISHED_ACCEL[kernel]
            for i in range(3):
                ratio, percent = signed_acceleration(tx[i], ta[i])
                assert abs(ratio - exp_r[i]) <= 0.02, (kernel, i)
                assert abs(percent - exp_p[i]) <= 1, (kernel, i)

    def test_acceleration_table(self):
        xilinx, altera = published_bench_records()
        table = acceleration_table(xilinx, altera)
        by_kernel = {rec.kernel: rec for rec in table}
        assert by_kernel["ip1_relu"].ratios == (-1.83, -3.29, -3.67)

    def test_mismatched_kernel_sets(self):
        xilinx, altera = published_bench_records()
        with pytest.raises(ValueError, match="kernel sets"):
            acceleration_table(xilinx[:4], altera)


class TestPipes:
    def test_published_count(self):
        assert pipes_required(20, 50) == 1000

    def test_trivial_counts(self):
        assert pipes_required(1, 1) == 1
        assert pipes_required(3, 4) == 12

    def test_invalid(self):
        with pytest.raises(ValueError):
            pipes_required(0, 5)

    def test_infeasible_on_both_platforms(self):
        for platform in platform_catalog().values():
            result = pipes_feasible(1000, 72, platform)
            assert result.required_kb == 72_000
            assert not result.feasible

    def test_zero_pipes_feasible(self):
        result = pipes_feasible(0, 72, platform_catalog()[ALTERA])
        assert result.feasible and result.required_kb == 0

    def test_small_count_feasible_on_both(self):
        for platform in platform_catalog().values():
            assert pipes_feasible(10, 72, platform).feasible


class TestStreaming:
    def test_backlogged_series(self):
        assert simulate_stream(12, 10, 5).tolist() == [12, 14, 16, 18, 20]

    def test_underloaded_is_constant(self):
        assert simulate_stream(8, 10, 5).tolist() == [8, 8, 8, 8, 8]

    def test_critically_loaded_is_constant(self):
        assert simulate_stream(10, 10, 5).tolist() == [10, 10, 10, 10, 10]

    def test_slope_is_exactly_service_minus_interval(self):
        lat = simulate_stream(12.5, 10.0, 1000)
        diffs = np.diff(lat)
        np.testing.assert_allclose(diffs, 2.5, rtol=0, atol=1e-9)

    def test_verdicts(self):
        assert stream_verdict(simulate_stream(12, 10, 100)) == "growing"
        assert stream_verdict(simulate_stream(8, 10, 100)) == "constant"
        assert stream_verdict(simulate_stream(12, 10, 1)) == "constant"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            simulate_stream(0, 10, 5)
        with pytest.raises(ValueError):
            simulate_stream(10, 10, 0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                simulate_stream(bad, 10, 5)
            with pytest.raises(ValueError, match="finite"):
                simulate_stream(10, bad, 5)


class TestRenderReport:
    def test_published_cell_renders_exactly(self):
        xilinx, _ = published_bench_records()
        text = render_report({"virtex7_690t_7v3": xilinx})
        assert "3.63/1.96/1.96" in text
        assert "single platform" in text

    def test_two_platform_report_carries_acceleration(self):
        xilinx, altera = published_bench_records()
        accel = acceleration_table(xilinx, altera)
        text = render_report({XILINX: xilinx, ALTERA: altera}, accel)
        assert "3.59/1.94/2.00" in text
        assert "259/94/100" in text
        assert "-1.83/-3.29/-3.67" in text

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            render_report({})
        with pytest.raises(ValueError):
            render_report({"x": []})

    def test_mismatched_kernel_sets_rejected(self):
        xilinx, altera = published_bench_records()
        with pytest.raises(ValueError):
            render_report({XILINX: xilinx, ALTERA: altera[:3]})

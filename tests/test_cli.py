import csv
import json
import struct
from pathlib import Path

import pytest

from kernelpipe import cli, fixtures
from kernelpipe.cli import build_parser, main
from kernelpipe.ingest import (
    read_results_csv,
    read_sweep_csv,
    write_results_csv,
)
from kernelpipe.netdef import lenet5_spec
from kernelpipe.ocl import ParallelMode
from kernelpipe.perf import (
    ALTERA,
    XILINX,
    BenchRecord,
    estimate_time,
    pipeline_footprints,
    platform_catalog,
)
from kernelpipe.sweep import default_sweep_grid
from kernelpipe.tensors import DEFAULT_QFORMAT, QFormat

PUBLISHED_TIMES = {
    "conv_pool1": ((3.63, 1.96, 1.96), (1.01, 1.01, 0.98)),
    "conv2": ((7.62, 4.92, 4.92), (3.95, 3.96, 4.27)),
    "pool2": ((0.03, 0.06, 0.06), (0.08, 0.07, 0.13)),
    "ip1_relu": ((0.55, 0.55, 0.55), (1.01, 1.81, 2.02)),
    "ip2": ((0.35, 0.35, 0.35), (0.15, 0.14, 0.13)),
}


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture_data")
    return fixtures.write_fixture_files(out, seed=42, count=4)


class TestClassify:
    def test_classify_text_images(self, fixture_files, capsys):
        rc = main(["classify", "--weights", fixture_files["weights"][0],
                   "--images", *fixture_files["images"]])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        for i, line in enumerate(lines):
            cells = line.split(",")
            assert int(cells[0]) == i
            assert 0 <= int(cells[1]) <= 9
            assert len(cells) == 12
            [float(c) for c in cells[2:]]  # logits all parse

    def test_oracle_agreement_on_fixture(self, fixture_files, capsys):
        rc = main(["classify", "--weights", fixture_files["weights"][0],
                   "--images", *fixture_files["images"], "--oracle"])
        assert rc == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last == "agreement,1"

    def test_zero_weight_store_all_winners_zero(self, tmp_path, capsys):
        from kernelpipe.ingest import write_weights_text
        from kernelpipe.weights import zero_weights
        path = tmp_path / "zero.txt"
        write_weights_text(zero_weights(), path)
        rc = main(["classify", "--weights", str(path), "--count", "2"])
        assert rc == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert line.split(",")[1] == "0"

    def test_missing_weight_file(self, capsys):
        rc = main(["classify", "--weights", "/nonexistent/w.txt"])
        assert rc == 1
        assert "/nonexistent/w.txt" in capsys.readouterr().err

    def test_non_ascii_weight_file(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_bytes(b"conv1_w 20 1 5 5\n0.5 caf\xc3\xa9\n")
        rc = main(["classify", "--weights", str(path)])
        assert rc == 1
        assert f"{path}:2: non-ASCII byte 0xc3" in capsys.readouterr().err

    def test_mode_flags(self, fixture_files, capsys):
        args = ["classify", "--weights", fixture_files["weights"][0],
                "--images", fixture_files["images"][0]]
        assert main(args) == 0
        out_none = capsys.readouterr().out
        # datapath width never changes values; 128 lanes are within the
        # platform lane budget, so the engine runs them too
        for flags in (["--mode", "simd", "--width", "8", "--cu", "2"],
                      ["--mode", "simd", "--width", "128"]):
            assert main(args + flags) == 0, flags
            assert capsys.readouterr().out == out_none, flags

    def test_count_below_one_is_user_error(self, fixture_files, capsys):
        for argv in (["classify", "--weights", fixture_files["weights"][0],
                      "--count", "0", "--oracle"],
                     ["classify", "--weights", fixture_files["weights"][0],
                      "--count", "-1"],
                     ["sweep", "--count", "0"],
                     ["sweep", "--count", "-1"]):
            assert main(argv) == 1, argv
            assert "--count" in capsys.readouterr().err, argv

    def test_count_checked_only_where_read(self, fixture_files, capsys):
        # text images ignore --count, so a count of 0 beside them is no error
        weights, image = fixture_files["weights"][0], fixture_files["images"][0]
        assert main(["classify", "--weights", weights, "--images", image]) == 0
        expected = capsys.readouterr().out
        assert main(["classify", "--weights", weights, "--images", image,
                     "--count", "0"]) == 0
        assert capsys.readouterr().out == expected
        assert main(["classify", "--weights", weights, "--count", "0"]) == 1
        assert capsys.readouterr().err == "error: --count must be at least 1, got 0\n"

    def test_negative_fixture_count_is_user_error(self, tmp_path, capsys):
        out = tmp_path / "fx"
        assert main(["fixtures", "--out", str(out), "--count", "-1"]) == 1
        assert "--count" in capsys.readouterr().err
        assert not out.exists()
        assert main(["fixtures", "--out", str(out), "--count", "0"]) == 0
        assert [p.name for p in out.iterdir()] == ["weights_seed42.txt"]

    def test_deterministic_output(self, fixture_files, tmp_path):
        args = ["classify", "--weights", fixture_files["weights"][0],
                "--images", *fixture_files["images"], "--oracle"]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestBench:
    def test_both_platforms_thirty_cells(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        rc = main(["bench", "--out", str(out_dir)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "acceleration" in text
        with open(out_dir / "bench.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["kernel", "platform", "mode", "time_ms",
                           "logic_k", "dsp", "bram_kb"]
        assert len(rows) - 1 == 5 * 2 * 3  # kernels x platforms x modes
        assert (out_dir / "acceleration.csv").exists()

    def test_csv_reparses_to_estimates(self, tmp_path):
        out_dir = tmp_path / "bench"
        main(["bench", "--out", str(out_dir), "--platform", "xilinx"])
        records = read_results_csv(out_dir / "bench.csv")
        q = QFormat(16, 8)
        catalog = platform_catalog()
        fps = {fp.stage: fp for fp in pipeline_footprints(lenet5_spec(), q)}
        for platform_name, rec in records:
            assert platform_name == XILINX
            expected = estimate_time(fps[rec.kernel], catalog[XILINX], ParallelMode())
            assert rec.times_ms[0] == expected

    def test_single_platform_omits_acceleration(self, tmp_path, capsys):
        rc = main(["bench", "--platform", "altera"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "single platform: acceleration table omitted" in text

    def test_replay_from_csv_reproduces_published_table(self, tmp_path, capsys):
        published_accel = {
            "conv_pool1": ((3.59, 1.94, 2.00), (259, 94, 100)),
            "conv2": ((1.92, 1.24, 1.15), (92, 24, 15)),
            "pool2": ((-2.66, -1.16, -2.16), (-166, -16, -116)),
            "ip1_relu": ((-1.83, -3.29, -3.67), (-83, -229, -267)),
            "ip2": ((2.33, 2.50, 2.69), (133, 150, 169)),
        }
        path = tmp_path / "published.csv"
        records = []
        for kernel, (tx, ta) in PUBLISHED_TIMES.items():
            records.append((XILINX, BenchRecord(kernel, tx, (0, 0, 0), (0, 0, 0), (0, 0, 0))))
            records.append((ALTERA, BenchRecord(kernel, ta, (0, 0, 0), (0, 0, 0), (0, 0, 0))))
        write_results_csv(records, path)
        out_dir = tmp_path / "out"
        rc = main(["bench", "--from-csv", str(path), "--out", str(out_dir)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "3.59/1.94/2.00" in text
        assert "-2.66/-1.16/-2.16" in text
        # every cell of the written acceleration table matches the published one
        with open(out_dir / "acceleration.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert len(rows) == 15
        for kernel, mode_name, ratio, percent in rows:
            mode_idx = ["none", "unroll", "simd"].index(mode_name)
            exp_r, exp_p = published_accel[kernel]
            assert abs(float(ratio) - exp_r[mode_idx]) <= 0.02
            assert abs(int(percent) - exp_p[mode_idx]) <= 1

    def test_unknown_platform(self, capsys):
        rc = main(["bench", "--platform", "cyclone"])
        assert rc == 1
        # the message itself, not the repr a KeyError's str() gives
        assert capsys.readouterr().err.startswith("error: unknown platform 'cyclone'")

    def test_replay_non_finite_cell_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        write_results_csv([(XILINX, BenchRecord("conv2", (float("inf"), 1.0, 1.0),
                                                (0, 0, 0), (0, 0, 0), (0, 0, 0)))], path)
        assert main(["bench", "--from-csv", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:2:" in captured.err

    def test_replay_non_positive_time_is_user_error(self, tmp_path, capsys):
        # one board: no acceleration ratio would catch the time later
        path = tmp_path / "bench.csv"
        write_results_csv([(XILINX, BenchRecord("conv2", (1.0, -2.5, 1.0),
                                                (0, 0, 0), (0, 0, 0), (0, 0, 0)))], path)
        assert main(["bench", "--from-csv", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:3: time_ms must be positive, got '-2.5'\n"

    def test_replay_negative_resource_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        write_results_csv([(XILINX, BenchRecord("conv2", (1.0, 1.0, 1.0),
                                                (-5, 0, 0), (0, -7, 0), (0, 0, 0)))], path)
        assert main(["bench", "--from-csv", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:2: logic_k must not be negative, got '-5.0'\n"


class TestSweep:
    def test_small_grid_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--count", "2", "--grid", "16:8", "--out", str(out)])
        assert rc == 0
        results = read_sweep_csv(out)
        assert len(results) == 1
        assert results[0].n_samples == 2
        assert (results[0].qformat.total_bits, results[0].qformat.frac_bits) == (16, 8)

    @pytest.mark.parametrize("grid, message", [
        ("", "empty sweep grid"),
        ("8", "bad --grid entry '8'; expected total:frac"),
        ("8:x", "bad --grid entry '8:x'; expected total:frac"),
    ])
    def test_empty_grid_is_user_error(self, grid, message, capsys):
        rc = main(["sweep", "--count", "1", "--grid", grid])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_default_grid_is_the_sweep_default(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--count", "1", "--out", str(out)]) == 0
        assert [r.qformat for r in read_sweep_csv(out)] == default_sweep_grid()

    def test_grid_cardinality(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--count", "1", "--grid", "8:4,16:8", "--out", str(out)])
        assert rc == 0
        assert len(read_sweep_csv(out)) == 2


class TestStream:
    @staticmethod
    def totals(width=1024):
        q = QFormat(16, 8)
        mode = ParallelMode("simd", width)
        catalog = platform_catalog()
        fps = pipeline_footprints(lenet5_spec(), q)
        return {name: sum(estimate_time(fp, cfg, mode) for fp in fps)
                for name, cfg in catalog.items()}

    def test_dichotomy_between_service_totals(self, capsys):
        # any interval strictly between the two boards' total service times
        # must label the slow-memory board growing and the other constant
        totals = self.totals()
        assert totals[ALTERA] > totals[XILINX]
        interval = (totals[ALTERA] + totals[XILINX]) / 2
        rc = main(["stream", "--platform", "altera", "--interval", str(interval),
                   "--mode", "simd", "--width", "1024", "--frames", "200"])
        assert rc == 0
        assert "verdict,growing" in capsys.readouterr().out
        rc = main(["stream", "--platform", "xilinx", "--interval", str(interval),
                   "--mode", "simd", "--width", "1024", "--frames", "200"])
        assert rc == 0
        assert "verdict,constant" in capsys.readouterr().out

    def test_interval_equal_to_service_is_constant(self, capsys):
        # the interval is the service time itself, to the last bit
        interval = repr(self.totals()[ALTERA])
        rc = main(["stream", "--platform", "altera", "--interval", interval,
                   "--mode", "simd", "--width", "1024", "--frames", "100000"])
        assert rc == 0
        fields = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert fields["verdict"] == "constant"
        assert fields["first_latency_ms"] == fields["last_latency_ms"]

    def test_single_frame_is_constant(self, capsys):
        rc = main(["stream", "--platform", "altera", "--interval", "0.001",
                   "--frames", "1"])
        assert rc == 0
        assert "verdict,constant" in capsys.readouterr().out

    def test_nonpositive_interval_is_user_error(self, capsys):
        rc = main(["stream", "--platform", "altera", "--interval", "0"])
        assert rc == 1

    @pytest.mark.parametrize("interval", ["nan", "inf"])
    def test_non_finite_interval_is_user_error(self, interval, capsys):
        rc = main(["stream", "--platform", "altera", "--interval", interval])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value,message", [
        ("--frames", "-3", "--frames must be at least 1, got -3"),
        ("--frames", "0", "--frames must be at least 1, got 0"),
        ("--interval", "-1", "--interval must be positive and finite, got -1.0"),
        ("--interval", "0", "--interval must be positive and finite, got 0.0"),
        ("--interval", "nan", "--interval must be positive and finite, got nan"),
        ("--interval", "inf", "--interval must be positive and finite, got inf"),
    ])
    def test_bad_option_is_named(self, option, value, message, capsys):
        argv = {"--interval": "1", "--frames": "10", option: value}
        rc = main(["stream", "--platform", "altera", *(x for kv in argv.items() for x in kv)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestConfigOverride:
    def test_env_config_changes_service(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"platform.{ALTERA}.compute_clock_hz = 4e8\n")
        args = ["stream", "--platform", "altera", "--interval", "100", "--frames", "2"]
        main(args)
        base = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("service_ms")][0]
        monkeypatch.setenv("KERNELPIPE_CONFIG", str(cfg))
        main(args)
        overridden = [l for l in capsys.readouterr().out.splitlines()
                      if l.startswith("service_ms")][0]
        base_ms = float(base.split(",")[1])
        over_ms = float(overridden.split(",")[1])
        # doubling the clock halves every compute-bound term; pool2 is
        # memory-bound so the total shrinks by slightly less than half
        assert base_ms / 2 < over_ms < base_ms * 0.51

    def test_misspelled_platform_field_is_user_error(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"platform.{XILINX}.dsp_capacty = 100\n")
        monkeypatch.setenv("KERNELPIPE_CONFIG", str(cfg))
        rc = main(["stream", "--platform", "xilinx", "--interval", "1"])
        assert rc == 1
        assert "dsp_capacty" in capsys.readouterr().err

    def test_duplicate_config_key_is_user_error(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "model.cfg"
        key = f"platform.{XILINX}.compute_clock_hz"
        cfg.write_text(f"{key} = 2e8\n{key} = 3e8\n")
        monkeypatch.setenv("KERNELPIPE_CONFIG", str(cfg))
        assert main(["stream", "--platform", "xilinx", "--interval", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"model.cfg:2: key '{key}' already set on line 1" in captured.err

    @pytest.mark.parametrize("command", [["bench"], ["stream", "--platform", "altera",
                                                     "--interval", "1"]])
    @pytest.mark.parametrize("line, message", [
        # keys of no known form
        (f"platfom.{ALTERA}.compute_clock_hz = 1", "platfom."),
        ("coef.conv2.logic_k.base = 99", "coef.conv2.logic_k.base"),
        (f"platform.{ALTERA}.compute_clock_hz.extra = 5", "compute_clock_hz.extra"),
        ("coeff.conv2.logic_k = 9", "coeff.conv2.logic_k"),
        # fields that are not numeric board parameters
        (f"platform.{ALTERA}.name = {XILINX}", f"{ALTERA}.name"),
        (f"platform.{ALTERA}.secondary_multipliers = 7", "secondary_multipliers"),
        # non-finite values
        (f"platform.{ALTERA}.compute_clock_hz = nan", "finite"),
        (f"platform.{ALTERA}.compute_clock_hz = inf", "finite"),
        ("coeff.conv2.logic_k.per_lane = nan", "finite"),
        ("coeff.conv2.logic_k.per_lane = inf", "finite"),
        # values that do not convert name their key
        (f"platform.{XILINX}.dsp_capacity = 3.5", f"platform.{XILINX}.dsp_capacity"),
        ("coeff.conv2.dsp.base = abc", "coeff.conv2.dsp.base"),
        # values the board rejects name their key
        (f"platform.{XILINX}.ddr_transfer_rate_mt = 0",
         f"config key 'platform.{XILINX}.ddr_transfer_rate_mt'"),
        (f"platform.{ALTERA}.ddr_efficiency = 1.5", f"config key 'platform.{ALTERA}.ddr_efficiency'"),
        # every rejection names the file and the key's line
        (f"# boards\nplatform.{XILINX}.dsp_capacity = 3.5",
         f"model.cfg:2: config key 'platform.{XILINX}.dsp_capacity': expected int, got '3.5'\n"),
    ])
    def test_bad_config_line_is_user_error(self, line, message, command, tmp_path, capsys,
                                           monkeypatch):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(line + "\n")
        monkeypatch.setenv("KERNELPIPE_CONFIG", str(cfg))
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        # options a subcommand does not read
        ["bench", "--mode", "simd"],
        ["bench", "--seed", "9"],
        ["bench", "--avg-pool"],
        ["stream", "--platform", "altera", "--interval", "1", "--seed", "9"],
        ["stream", "--platform", "altera", "--interval", "1", "--avg-pool"],
        ["sweep", "--count", "1", "--grid", "16:8", "--qbits", "8"],
        ["sweep", "--count", "1", "--grid", "16:8", "--qfrac", "4"],
        ["bench", "--bogus"],
        # two image sources at once
        ["classify", "--weights", "{weights}", "--images", "{image}",
         "--mnist", "nofile", "nofile"],
        # an image option without paths
        ["classify", "--weights", "{weights}", "--images"],
        ["sweep", "--count", "1", "--grid", "16:8", "--images"],
        # a missing required option, a malformed value
        ["classify", "--count", "1"],
        ["stream", "--platform", "altera", "--interval", "abc"],
    ], ids=" ".join)
    def test_usage_error_exits_1(self, argv, fixture_files, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a sweep that ran would write sweep.csv here
        fill = {"{weights}": fixture_files["weights"][0],
                "{image}": fixture_files["images"][0]}
        assert main([fill.get(arg, arg) for arg in argv]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_idx_file_exits_1(self, fixture_files, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">iiii", 2049, 1, 28, 28) + bytes(784))
        labels.write_bytes(struct.pack(">ii", 2049, 1) + bytes(1))
        assert main(["classify", "--weights", fixture_files["weights"][0], "--mnist",
                     str(images), str(labels), "--count", "1"]) == 1
        assert f"error: {images}:0: bad image magic 2049" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "bench", "sweep", "stream", "fixtures"])
    def test_help_exits_0(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert "usage" in capsys.readouterr().out


STREAM = ["stream", "--platform", "altera", "--interval", "1"]


class TestSharedParser:
    """``main`` builds its parser once per process, so a parse must leave
    nothing on it for the next one."""

    SEQUENCES = {
        "one board, then both": ([["bench", "--platform", "altera"], ["bench"]], [0, 0]),
        "simd, then the default mode": ([STREAM + ["--mode", "simd", "--width", "16"], STREAM],
                                        [0, 0]),
        "usage error, help, valid": ([STREAM[:-1] + ["abc"], ["stream", "--help"], STREAM],
                                     [1, 0, 0]),
    }

    @staticmethod
    def run(sequence, capsys):
        results = []
        for argv in sequence:
            rc = main(argv)
            captured = capsys.readouterr()
            results.append((rc, captured.out, captured.err))
        return results

    @pytest.mark.parametrize("sequence, codes", SEQUENCES.values(), ids=SEQUENCES)
    def test_matches_a_fresh_parser_per_call(self, sequence, codes, capsys, monkeypatch):
        monkeypatch.delenv("KERNELPIPE_CONFIG", raising=False)
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_parser", build_parser)
            expected = self.run(sequence, capsys)
        assert [rc for rc, _, _ in expected] == codes

        builds = []
        def counted_build():
            builds.append(1)
            return build_parser()
        monkeypatch.setattr(cli, "build_parser", counted_build)
        cli._parser.cache_clear()
        assert self.run(sequence, capsys) == expected
        assert self.run(sequence, capsys) == expected
        assert len(builds) == 1


class TestDefaults:
    def test_format_defaults_are_default_qformat(self):
        for argv in (["classify", "--weights", "w"], ["bench"],
                     ["stream", "--platform", "altera", "--interval", "1"]):
            args = build_parser().parse_args(argv)
            assert QFormat(args.qbits, args.qfrac) == DEFAULT_QFORMAT


class TestGoldenModel:
    def test_replays_perfbench_golden_outputs(self, capsys, monkeypatch):
        # the modeled numbers must stay bit-stable: every bench/stream command
        # the benchmark's model workload issues prints exactly its record
        golden_path = Path(__file__).resolve().parents[1] / "perfbench" / "golden_model.json"
        golden = json.loads(golden_path.read_text(encoding="ascii"))
        monkeypatch.delenv("KERNELPIPE_CONFIG", raising=False)
        differing = []
        for command, expected in golden.items():
            rc = main(command.split())
            captured = capsys.readouterr()
            if rc != 0 or captured.out + captured.err != expected:
                differing.append(command)
        assert golden
        assert differing == []


class TestFixturesCommand:
    def test_writes_files(self, tmp_path, capsys):
        rc = main(["fixtures", "--out", str(tmp_path / "fx"), "--seed", "5",
                   "--count", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # one weights file + three images
        kinds = [l.split(",")[0] for l in lines]
        assert kinds.count("weights") == 1
        assert kinds.count("images") == 3

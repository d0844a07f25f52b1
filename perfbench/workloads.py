"""The three benchmark workloads: what a request is, how inputs are made
from the seed, and what each request records for the correctness gate.

Every workload drives kernelpipe from outside through its public functions
and changes nothing in it.  The program sees only the generated weights
file and images.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from types import SimpleNamespace

import numpy as np

import gate

PACKAGE = "kernelpipe"
MODULES = ("cli", "fixtures", "ingest", "netdef", "ocl", "ocl.queue", "perf",
           "pipeline", "reference", "sweep", "tensors", "weights")

#: Distinct images per run; requests cycle through them.
IMAGE_POOL = 32

CLASSIFY_FORMAT = (16, 8)
SWEEP_GRID = ((8, 4), (12, 6), (16, 8), (24, 12), (32, 16), (32, 24))
SWEEP_IMAGES_PER_CALL = 2

#: The model workload's settings space.  Every tuple is captured in
#: golden_model.json, so any seed draws only tuples with a golden record.
MODEL_AMOUNTS = (2, 16, 128, 1024, 4096)
MODEL_MODES = (("none", 1),) + tuple((m, a) for m in ("unroll", "simd") for a in MODEL_AMOUNTS)
MODEL_CUS = (1, 2, 4)
MODEL_INTERVALS = ("0.05", "0.16", "2")
MODEL_BOARDS = ("altera", "xilinx")
STREAM_FRAMES = 100_000


def import_fresh() -> SimpleNamespace:
    """Import kernelpipe from scratch, so import-time work is paid again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = SimpleNamespace(root=importlib.import_module(PACKAGE))
    for name in MODULES:
        setattr(lib, name.replace(".", "_"), importlib.import_module(f"{PACKAGE}.{name}"))
    return lib


def format_key(total_bits: int, frac_bits: int) -> str:
    """Metric-name form of a fixed-point format: Q16.8 is ``q16_8``."""
    return f"q{total_bits}_{frac_bits}"


def qformat_key(q) -> str:
    return format_key(q.total_bits, q.frac_bits)


def model_tuples() -> list[tuple[str, int, int, str]]:
    return [(mode, amount, cu, interval) for mode, amount in MODEL_MODES
            for cu in MODEL_CUS for interval in MODEL_INTERVALS]


def model_commands(settings) -> list[list[str]]:
    """One ``bench`` covering both boards, then one ``stream`` per board."""
    mode, amount, cu, interval = settings
    width = {"unroll": ["--factor", str(amount)], "simd": ["--width", str(amount)]}.get(mode, [])
    bench = ["bench", "--cu", str(cu), *width]
    streams = [["stream", "--platform", board, "--interval", interval,
                "--frames", str(STREAM_FRAMES), "--mode", mode, "--cu", str(cu), *width]
               for board in MODEL_BOARDS]
    return [bench, *streams]


def run_cli(lib, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(list(argv))
    return rc, out.getvalue() + err.getvalue()


class Classify:
    """One image per request through ``pipeline.forward`` at Q16.8, max
    pooling, mode none and one compute unit: the per-image call that
    ``kernelpipe classify`` makes."""

    name = "classify"
    work_unit = "image"
    extra_checks = 2

    def __init__(self, lib, seed, weights_path, tracer):
        self.lib = lib
        with tracer.span("fixtures.generate"):
            self.images = lib.fixtures.synthetic_images(seed, IMAGE_POOL)
        self.q = lib.tensors.QFormat(*CLASSIFY_FORMAT)
        self.pool_op = lib.netdef.MAX_POOL
        self.mode = lib.ocl.ParallelMode(lib.ocl.MODE_NONE, cu_count=1)
        self.store = lib.ingest.load_weights_text(weights_path).quantize(self.q)

    def request(self, i):
        index = i % IMAGE_POOL
        result = self.lib.pipeline.forward(self.images[index], self.store,
                                           mode=self.mode, pool_op=self.pool_op)
        return 1, (index, result)

    @staticmethod
    def summarize(observation):
        """Keep only what the gate needs, so stored results stay small."""
        index, result = observation
        return gate.ClassifyObservation(index, np.array(result.raw_logits), gate.stage_counts(result))

    def check(self, observations) -> list[str]:
        """Against the step-quantized reference, the analytic footprints and
        two other parallel modes (the spot check: ``extra_checks`` more
        operations)."""
        lib = self.lib
        expected = {i: lib.reference.forward_quantized(self.images[i], self.store,
                                                        pool_op=self.pool_op)[0]
                    for i in {0} | {o.image for o in observations
                                    if not isinstance(o, gate.Failure)}}
        spec = lib.netdef.lenet5_spec(self.pool_op)
        footprints = {stage: gate.footprint_counts(lib.perf.kernel_footprint(spec, stage, self.q))
                      for stage in lib.netdef.STAGE_NAMES}
        spot = {}
        for mode in (lib.ocl.ParallelMode(lib.ocl.MODE_SIMD, 8, 4),
                     lib.ocl.ParallelMode(lib.ocl.MODE_UNROLL, 4, 2)):
            result = lib.pipeline.forward(self.images[0], self.store, mode=mode,
                                          pool_op=self.pool_op)
            spot[str(mode)] = np.array(result.raw_logits)
        return gate.check_classify(observations, expected, footprints, spot)


class Sweep:
    """One ``sweep_precision`` call per request, with average pooling, over
    the six-format grid, on two images."""

    name = "sweep"
    work_unit = "image x format evaluation"
    extra_checks = 0

    def __init__(self, lib, seed, weights_path, tracer):
        self.lib = lib
        with tracer.span("fixtures.generate"):
            self.images = lib.fixtures.synthetic_images(seed, IMAGE_POOL)
        self.formats = [lib.tensors.QFormat(t, f) for t, f in SWEEP_GRID]
        self.pool_op = lib.netdef.AVG_POOL
        self.store = lib.ingest.load_weights_text(weights_path)

    def request(self, i):
        first = (i * SWEEP_IMAGES_PER_CALL) % IMAGE_POOL
        indices = tuple((first + k) % IMAGE_POOL for k in range(SWEEP_IMAGES_PER_CALL))
        results = self.lib.sweep.sweep_precision(
            self.store, [self.images[k] for k in indices], self.formats, pool_op=self.pool_op)
        return len(indices) * len(self.formats), (indices, results)

    @staticmethod
    def summarize(observation):
        indices, results = observation
        rows = tuple(gate.SweepRow(r.qformat.total_bits, r.qformat.frac_bits,
                                   r.max_abs_logit_error, r.mean_abs_logit_error,
                                   r.argmax_agreement, r.n_samples) for r in results)
        return gate.SweepObservation(indices, rows)

    def check(self, observations) -> list[str]:
        """Against a recount from the float64 reference and the step-quantized
        reference (not the engine)."""
        lib = self.lib
        stores = {(q.total_bits, q.frac_bits): self.store.quantize(q) for q in self.formats}
        used = {i for o in observations if not isinstance(o, gate.Failure) for i in o.images}
        float_logits, raw_logits = {}, {}
        for i in used:
            img = self.images[i]
            float_logits[i] = lib.reference.forward_float(img, self.store, self.pool_op)[0]
            for key, fixed in stores.items():
                raw_logits[i, key] = lib.reference.forward_quantized(
                    img, fixed, pool_op=self.pool_op)[0]
        return gate.check_sweep(observations, SWEEP_GRID, float_logits, raw_logits)


class Model:
    """One settings tuple per request: ``kernelpipe bench`` for both boards
    plus ``kernelpipe stream`` on each board, run in-process."""

    name = "model"
    work_unit = "settings tuple"
    extra_checks = 0

    def __init__(self, lib, seed, weights_path, tracer):
        self.lib = lib
        space = model_tuples()
        rng = np.random.default_rng(seed)
        self.settings = [space[k] for k in rng.integers(len(space), size=4096)]

    def request(self, i):
        outputs = []
        for argv in model_commands(self.settings[i % len(self.settings)]):
            rc, text = run_cli(self.lib, argv)
            outputs.append((" ".join(argv), rc, text))
        return 1, tuple(outputs)

    @staticmethod
    def summarize(observation):
        return observation

    def check(self, observations) -> list[str]:
        return gate.check_model(observations, gate.load_golden())


WORKLOADS = {w.name: w for w in (Classify, Sweep, Model)}

"""Correctness gate: runs after the timed region and returns one message
per failed operation.  The checks take plain observations, so the self-test
can feed them corrupted ones."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_model.json"
SWEEP_TOLERANCE = 1e-9


class ClassifyObservation(NamedTuple):
    image: int
    raw_logits: np.ndarray
    stages: dict  # stage -> (bytes_read, bytes_written, macs)


class SweepRow(NamedTuple):
    total_bits: int
    frac_bits: int
    max_err: float
    mean_err: float
    agreement: float
    n: int


class SweepObservation(NamedTuple):
    images: tuple
    rows: tuple


class Failure(NamedTuple):
    """A request that raised instead of returning."""

    error: str


def stage_counts(result) -> dict:
    return {s.name: (s.bytes_read, s.bytes_written, s.macs) for s in result.stages}


def footprint_counts(fp) -> tuple:
    return (fp.bytes_read, fp.bytes_written, fp.macs)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="ascii"))


def check_classify(observations, expected, footprints, spot) -> list[str]:
    """Raw logits equal the step-quantized reference bit for bit, and every
    stage's bytes and MACs equal the analytic footprint.  ``spot`` maps a
    parallel mode to the raw logits it gave on image 0."""
    failures = []
    for n, obs in enumerate(observations):
        if isinstance(obs, Failure):
            failures.append(f"request {n}: {obs.error}")
            continue
        want = expected[obs.image]
        if obs.raw_logits.shape != want.shape or not np.array_equal(obs.raw_logits, want):
            failures.append(f"request {n}: raw logits differ from forward_quantized "
                            f"on image {obs.image}")
        elif obs.stages != footprints:
            failures.append(f"request {n}: stage counts {obs.stages} != footprints {footprints}")
    for mode, raw in spot.items():
        if not np.array_equal(raw, expected[0]):
            failures.append(f"mode {mode}: raw logits on image 0 differ from "
                            f"forward_quantized, which mode none must equal")
    return failures


def recount_sweep(images, formats, float_logits, raw_logits) -> tuple:
    """SweepRows recomputed from reference logits for one request's images."""
    rows = []
    for total, frac in formats:
        approx = np.array([raw_logits[i, (total, frac)] for i in images], dtype=np.float64)
        approx /= float(1 << frac)
        exact = np.array([float_logits[i] for i in images])
        errors = np.abs(approx - exact)
        agree = sum(int(np.argmax(a) == np.argmax(e)) for a, e in zip(approx, exact))
        rows.append(SweepRow(total, frac, float(errors.max()), float(errors.mean()),
                             agree / len(images), len(images)))
    return tuple(rows)


def check_sweep(observations, formats, float_logits, raw_logits) -> list[str]:
    """Agreement and sample counts equal an independent recount; errors
    match it within SWEEP_TOLERANCE."""
    failures = []
    for n, obs in enumerate(observations):
        if isinstance(obs, Failure):
            failures.append(f"request {n}: {obs.error}")
            continue
        want = recount_sweep(obs.images, formats, float_logits, raw_logits)
        bad = [(got, exp) for got, exp in zip(obs.rows, want)
               if got[:2] != exp[:2] or got.agreement != exp.agreement or got.n != exp.n
               or abs(got.max_err - exp.max_err) > SWEEP_TOLERANCE
               or abs(got.mean_err - exp.mean_err) > SWEEP_TOLERANCE]
        if len(obs.rows) != len(want) or bad:
            failures.append(f"request {n}: sweep rows differ from the recount: {bad}")
    return failures


def check_model(observations, golden) -> list[str]:
    """Every command exits 0 and prints exactly its golden record."""
    failures = []
    for n, obs in enumerate(observations):
        if isinstance(obs, Failure):
            failures.append(f"request {n}: {obs.error}")
            continue
        bad = [key for key, rc, text in obs if rc != 0 or golden.get(key) != text]
        if bad:
            failures.append(f"request {n}: output differs from golden for {bad}")
    return failures

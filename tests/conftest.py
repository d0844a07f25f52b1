import numpy as np
import pytest
from hypothesis import settings

from kernelpipe import fixtures
from kernelpipe.tensors import QFormat

# Property tests draw the same examples on every run, and run engine
# forwards whose wall time varies too much for a per-example deadline.
settings.register_profile("kernelpipe", derandomize=True, deadline=None)
settings.load_profile("kernelpipe")

Q16_8 = QFormat(16, 8)


@pytest.fixture(scope="session")
def store42():
    return fixtures.synthetic_weights(42)


@pytest.fixture(scope="session")
def fixed42(store42):
    return store42.quantize(Q16_8)


@pytest.fixture(scope="session")
def images42():
    return fixtures.synthetic_images(42, 8)


@pytest.fixture()
def image42(images42):
    return images42[0]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


def pytest_terminal_summary(terminalreporter):
    import sys

    results = []
    for name, module in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance":
            results = getattr(module, "RESULTS", [])
            if results:
                break
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for criterion, status, elapsed in results:
            terminalreporter.write_line(
                f"ACCEPTANCE {criterion}: {status} ({elapsed:.2f}s)")

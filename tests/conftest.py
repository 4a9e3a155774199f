import pytest

from flagflows.limitcurve import fuchsian_curve, sample_boundary
from flagflows.reps import bulge_deform, fuchsian_genus2, sym_power


@pytest.fixture(scope="session")
def reference():
    return fuchsian_genus2()


@pytest.fixture(scope="session")
def exact_curve(reference):
    """Closed-form Fuchsian limit curve in dimension three, as the CLI builds it."""
    return fuchsian_curve(reference, 3)


@pytest.fixture(scope="session")
def exact_curve4(reference):
    return fuchsian_curve(reference, 4)


@pytest.fixture(scope="session")
def sampled_curve(reference):
    """Eigenflag-sampled Fuchsian curve (interpolated between samples)."""
    return sample_boundary(sym_power(reference, 3), reference, 4)


@pytest.fixture(scope="session")
def bulged_curve(reference):
    return sample_boundary(bulge_deform(sym_power(reference, 3), 0.5),
                           reference, 4)


@pytest.fixture(scope="session")
def bulged_curve03(reference):
    """The curve of the CLI's `--bulge 0.3` config, sampled from word ball 3."""
    return sample_boundary(bulge_deform(sym_power(reference, 3), 0.3), reference, 3)

import numpy as np
import pytest
from importlib import resources

from cordspec.isometry_group import (GroupPresentation, Moebius,
                                     load_presentation, verify_presentation)


@pytest.fixture(scope="session")
def fig8():
    path = resources.files("cordspec").joinpath("data/figure_eight.json")
    return load_presentation(path)


@pytest.fixture(scope="session")
def five_two():
    """The 5_2 knot group, K(7/3), a second and non-arithmetic holonomy:
    a = [[1, 1], [0, 1]] and b = [[1, 0], [y, 1]] satisfy a w = w b,
    w = baBAba, when y is a root of Riley's polynomial y^3 + y^2 + 2y + 1;
    the root y = -0.21508 - 1.30714i gives the discrete faithful
    representation.  The longitude baBAbaabABab A^4 commutes with a and
    translates by lam = -2.49024 + 2.97945i."""
    y = complex(next(r for r in np.roots([1, 1, 2, 1]) if r.imag < 0))
    rep = GroupPresentation("five_two", [Moebius(1, 1, 0, 1),
                                         Moebius(1, 0, y, 1)],
                            ["abaBAbaBABabAB"], "a", "baBAbaabABabAAAA")
    lon = rep.evaluate(rep.longitude)
    lam = lon.b / lon.a
    rep.cusp_lattice = [[1.0, 0.0], [lam.real, lam.imag]]
    assert verify_presentation(rep)["ok"]
    return rep


# one summary line per acceptance criterion, shown after the test run
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

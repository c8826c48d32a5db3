import numpy as np
import pytest

from ellgenus.qmod import z2plus_shell


def _square_shell_sum(power, tau, bound):
    """sum of 1/(m tau + n)^power over 0 < max(|m|, |n|) <= bound, shell by shell,
    for even power: a square shell is its Z^2_+ part and that part's mirror image.

    The square order, kept as an oracle beside the library's row-major sums.
    """
    total = 0.0 + 0.0j
    for s in range(1, bound + 1):
        n, m = z2plus_shell(s)
        total += 2 * np.sum((m * tau + n) ** (-power))
    return complex(total)


@pytest.fixture
def square_shell_sum():
    return _square_shell_sum

"""Exactly solvable reference spectra, in reduced units (hbar = 2m = 1).

The paper's closed forms reduce to these at nu = -1 and nu = 2; the tests
check that they do, and the shooting oracle is checked against them.
"""


def energy_coulomb(n: int, q: int, k: int, mu0: float) -> float:
    """Coulomb levels -1/(4 (n + q + |k + mu0| + 1)^2) for coupling lam = -1."""
    big_n = n + q + abs(k + mu0) + 1.0
    return -1.0 / (4.0 * big_n * big_n)


def energy_oscillator(n: int, gamma: float) -> float:
    """Oscillator levels 2n + gamma + 3/2 in units of hbar omega."""
    return 2.0 * n + gamma + 1.5

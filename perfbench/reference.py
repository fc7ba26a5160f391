"""High-precision references for the closed forms the benchmark checks.

Each function evaluates the textbook expression directly in mpmath at
40 significant digits: no branch reduction, no log domain, no shared code
with the library.  Arguments are the exact binary floats the program saw.
A result of None marks a point where the closed form is undefined, which
the program must report as `nan` (or skip).
"""

from mpmath import mp, mpf

mp.dps = 40


def _u(g):
    return (1 - g) / (1 + g)


def magnetization(eps, g, n):
    g = mpf(g)
    if g == -1:
        return None
    u = _u(g)
    return eps * u * (1 + u ** (n - 2)) / (1 + u**n)


def correlators(g, n):
    """(Gx, Gy, Gz) of the eta = +1 sector."""
    u = _u(mpf(g))
    den = 1 + u**n
    return (u**2 + u ** (n - 2)) / den, u ** (n - 2) * (u**2 - 1) / den, (1 - u**2) / den


def concurrence(g, n):
    """C = 4|g| |1-|g||^(n-2) / |(1+g)^n + (1-g)^n|."""
    g = mpf(g)
    a = abs(g)
    return 4 * a * abs(1 - a) ** (n - 2) / abs((1 + g) ** n + (1 - g) ** n)


def sweep_row(eps, g, n):
    """(u, mx, Gx, Gy, Gz, C) of one `sweep` row."""
    return (_u(mpf(g)), magnetization(eps, g, n), *correlators(g, n), concurrence(g, n))


def figure1_row(g, sizes):
    """(N*C(g/N, N) for each N, limit 2|g| e^-|g| / cosh g).

    g/N is formed in binary floating point, as the program forms it.
    """
    scaled = [n * concurrence(float(g) / n, n) for n in sizes]
    x = mpf(g)
    return (*scaled, 2 * abs(x) * mp.exp(-abs(x)) / mp.cosh(x))


def figure2_row(eps, g, sizes):
    """(mx_N for each N, eps(1-|g|)/(1+|g|), eps(1+|g|)/(1-|g|))."""
    x = mpf(g)
    finite = [magnetization(eps, g, n) for n in sizes]
    limit = None if x in (0, -1) else eps * (1 - abs(x)) / (1 + abs(x))
    recip = None if abs(x) == 1 else eps * (1 + abs(x)) / (1 - abs(x))
    return (*finite, limit, recip)


def ground_energy(g, j, n):
    """Ground energy -N (J + (1 + g^2)/2) of the coupling form."""
    g = mpf(g)
    return -n * (mpf(j) + (1 + g * g) / 2)

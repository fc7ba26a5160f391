"""Exact diagonalization: the independent oracle for ground energies,
degeneracies and ground-space membership.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .model import g_blocks
from .mps import PureState, _first, _naming, _naming_g, explicit_ground_state
from .parent import bond_operator, constant_shift, ring_apply

DENSE_CAP = 12  # the largest ring that ring_spectrum diagonalizes
DEGENERACY_TOL = 1e-13  # of the ground-space cut, relative to the spectral radius max |w|
HERMITICITY_TOL = 1e-10  # max |h2 - h2^T| of the bond term, relative to max(1, max |h2|)
SYMMETRY_TOL = 1e-10  # max |h2 - (sx.sx) h2 (sx.sx)| over the 16 entries of the bond term
BLOCK_ENTRIES = 2**19  # certify stacks this many / 4^n values of g at once (one from n = 10)


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted spectrum with the extracted ground space."""

    eigenvalues: np.ndarray
    ground_space_dim: int
    ground_vectors: np.ndarray  # columns, orthonormal


def check_dense_cap(n):
    """Refuse a ring of n sites above DENSE_CAP."""
    if n > DENSE_CAP:
        raise ValueError(f"ring size {n} exceeds dense cap {DENSE_CAP}")


@functools.lru_cache(maxsize=None)
def _ring_sectors(n):
    """Orbit tables of the group generated by the one-site rotation T and
    the spin flip F on n-bit basis indices (site 1 the most significant bit).

    Group element T^m F^f sits at row m + n*f. Returns
    reps (R,): the smallest index of each orbit;
    orbits (2n, R): g(r_a) for every group element g;
    stab (R,): the stabilizer size of each representative;
    chars (S, 2n): chi_{k,s}(T^m F^f) = exp(2 pi i k m / n) s^f for the
        S = 2 (n//2 + 1) sectors k = 0..n//2 and s = +1, -1, in that order
        (for a real H the sector -k is the complex conjugate of the sector k);
    members: per sector, the representatives on whose stabilizer chi is
        trivial (none in the sector (1, +1) of n = 2; every sector holds a
        state from n = 3);
    copies (S,): 1 for the real sectors k = 0 and k = n/2, else 2.
    """
    dim = 2**n
    rotations = [np.arange(dim)]
    for _ in range(n - 1):
        last = rotations[-1]
        rotations.append(((last << 1) | (last >> (n - 1))) & (dim - 1))
    images = np.array(rotations + [dim - 1 - r for r in rotations])
    reps = np.flatnonzero(images.min(axis=0) == rotations[0])
    orbits = images[:, reps]
    in_stab = orbits == reps
    ks = np.arange(n // 2 + 1)
    phases = np.exp(2j * np.pi * np.outer(ks, np.arange(n)) / n)
    chars = np.vstack([np.hstack([phases, s * phases]) for s in (1, -1)])
    members = [np.flatnonzero(row) for row in np.abs(chars @ in_stab) > 0.5]
    copies = np.tile(np.where((ks == 0) | (2 * ks == n), 1, 2), 2)
    stab = in_stab.sum(axis=0)
    for table in (reps, orbits, stab, chars, copies, *members):
        table.flags.writeable = False  # the cache hands the same arrays to every call
    return reps, orbits, stab, chars, members, copies


def ring_spectrum(h2, n):
    """Full sorted spectrum and real orthonormal ground vectors of the ring
    Hamiltonian of a real symmetric bond term h2 (the sum of h2 over the n
    bonds), one sector at a time. The ground space is every eigenvalue
    w <= w[0] + DEGENERACY_TOL * max |w| (over the finite w), a cut at the
    scale of the eigensolver's rounding. A stack of bond terms (G, 4, 4)
    gives the list of its members' results, each equal to its own call.

    Every sector's eigenvalues come from one np.linalg.eigvalsh of its
    stacked blocks, and the cut and each block's number of levels within it
    are taken on those values. Then one np.linalg.eigh per sector solves the
    blocks that hold such a level: its eigenvalues replace eigvalsh's in the
    spectrum, and the first of its eigenvectors, one per level counted in
    the block, are the ground vectors. So every counted level has its vector
    whether or not the two solvers agree at the cut. In the model at J = 1
    the ground sectors are (0, +) and (0, -) for eta = +1 and (0, +) and
    (n/2, -) for eta = -1, so the complex sectors get eigvalsh only. The
    result has the bits of an eigh of every block in all but the eigenvalues
    of the other sectors.

    Every bond applies the same h2, so H commutes with the one-site rotation
    T; it commutes with the spin flip F when (sx.sx) h2 (sx.sx) = h2. So it
    is block diagonal in the sectors (k, s) of the group they generate
    (Sandvik, arXiv:1101.3281, sec. 4.1). The block of a sector is
    H_ks[a, b] = sum_g chi(g) H[g(r_a), r_b] / sqrt(|Stab_a| |Stab_b|)
    over the orbit representatives r on whose stabilizer chi is trivial, in
    the basis phi_r = sum_g conj(chi(g)) |g r> / sqrt(2n |Stab_r|). A real H
    makes the sector -k the complex conjugate of k, so only k <= n/2 is
    diagonalized and counted twice. A complex ground vector v of sector k
    gives the real orthonormal pair sqrt(2) Re v, sqrt(2) Im v, which spans
    v and its conjugate. A non-finite eigenvalue or eigenvector in any block
    of a member makes every value of that member's result non-finite, with
    max(1, ground_space_dim) ground vectors, all NaN; a member with a
    non-finite eigvalsh value counts no level, so its dimension is 0. The
    blocks are gathered from the columns of H at the representatives,
    ring_apply of h2 to their unit vectors.
    """
    h2 = np.asarray(h2)
    check_dense_cap(n)
    if np.iscomplexobj(h2):
        raise ValueError("ring_spectrum needs a real symmetric bond term")
    scale = np.maximum(1.0, np.abs(h2).max(axis=(-2, -1)))
    skew = np.abs(h2 - h2.swapaxes(-2, -1)).max(axis=(-2, -1)) > HERMITICITY_TOL * scale
    if skew.any():
        raise _naming(ValueError("bond term is not symmetric"), _first(skew))
    if np.max(np.abs(h2 - h2[..., ::-1, ::-1])) > SYMMETRY_TOL:  # sx.sx reverses the 4 states
        raise ValueError("bond term does not commute with the spin flip")
    reps, orbits, stab, chars, members, copies = _ring_sectors(n)
    stack, size = h2.reshape(-1, 4, 4), len(reps)
    units = np.zeros((2**n, size))
    units[reps, np.arange(size)] = 1.0
    cols = ring_apply(stack, units, n)  # H[:, r_b] of every member
    gathered = cols[:, orbits] / np.sqrt(np.outer(stab, stab))  # H[g(r_a), r_b]
    blocks = (chars @ gathered.reshape(len(stack), len(orbits), -1)).reshape(
        len(stack), -1, size, size)
    blocks = [(block if twice == 2 else block.real)[:, sel[:, None], sel]
              for block, sel, twice in zip(blocks.swapaxes(0, 1), members, copies)]
    values = [np.linalg.eigvalsh(block) for block in blocks]
    every = np.hstack(values)
    finite = np.isfinite(every).all(axis=1)
    tops = np.fmin.reduce(every, axis=1) + DEGENERACY_TOL * np.fmax.reduce(
        np.abs(every), axis=1)  # fmin and fmax skip NaN
    # per sector, each finite member's number of levels within its cut
    held = [((w <= tops[:, None]) & finite[:, None]).sum(axis=1) for w in values]
    columns = [[] for _ in stack]
    for block, ws, count, sel, char, twice in zip(blocks, values, held, members, chars, copies):
        ms = np.flatnonzero(count)
        if not ms.size:
            continue
        ws[ms], vs = np.linalg.eigh(block[ms])  # eigh's values replace eigvalsh's
        finite[ms] &= np.isfinite(ws[ms]).all(axis=1) & np.isfinite(vs).all(axis=(1, 2))
        for m, v in zip(ms, vs):
            # each state of the orbit of r_a is g(r_a) for |Stab_a| elements g
            # with the same chi(g), so one assignment per state times |Stab_a|
            # stands for the sum: |Stab_a| / sqrt(2n |Stab_a|)
            weights = v[:, :count[m]] * np.sqrt(stab[sel] / (2 * n))[:, None]
            vec = np.zeros((2**n, count[m]), complex)
            vec[orbits[:, sel]] = char.conj()[:, None, None] * weights
            columns[m] += [vec.real] if twice == 1 else [np.sqrt(2) * vec.real, np.sqrt(2) * vec.imag]
    w = np.sort(np.hstack([ws for ws, c in zip(values, copies) for _ in range(c)]), axis=1)
    dims = sum(c * count for c, count in zip(copies, held)).tolist()
    results = []
    for wm, dim, ok, vectors in zip(w, dims, finite, columns):
        if not ok:
            wm[0] = np.nan  # np.sort moved any NaN to the end
            vectors = [np.full((2**n, max(dim, 1)), np.nan)]
        results.append(SpectrumResult(wm, dim, np.hstack(vectors)))
    return results if h2.ndim > 2 else results[0]


def _dot(a, b):
    """<a|b> of the last axes, member by member: a stacked (1, d) @ (d, 1)
    product, which sums as np.vdot does (the BLAS dot for double, in order
    for long double)."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def rayleigh_quotient(h2, v):
    """<v|H|v> / <v|v> accumulated in long double, for the ring Hamiltonian
    of the bond term h2 (ring_apply on v in long double).  A stack of bond
    terms (..., 4, 4) and of vectors (..., 2^n) gives the float array of
    the members' quotients, each the bits of its own call.

    Evaluated on an eigenvector of H, the quotient is accurate to second
    order in the eigenvector error, so it does not carry the last-digit
    noise of the eigensolver's eigenvalue.
    """
    v = np.asarray(v)
    v = v.astype(np.clongdouble if np.iscomplexobj(v) else np.longdouble)
    hv = ring_apply(h2, v[..., None], v.shape[-1].bit_length() - 1)[..., 0]
    q = (_dot(v, hv) / _dot(v, v)).real.astype(float)
    return q if q.ndim else float(q)


def ground_membership(h2, psi, spectrum):
    """(residual norm, overlap with the ground space) of a normalized state
    under the ring Hamiltonian of the bond term h2.

    residual = ||H psi - <psi|H|psi> psi||; overlap = ||P_ground psi||.
    spectrum: a SpectrumResult whose ground_vectors span the ground space,
    such as the ring_spectrum of h2 or of h2 + c*identity (the same
    eigenvectors).  A stack of bond terms (G, 4, 4), of states (G, 2^n) and
    the list of their G spectra give the float arrays (G,) of residuals and
    overlaps, each member the bits of its own call: the residuals in
    stacked calls, the projections one member at a time (the ground spaces
    differ in dimension).
    """
    vec = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, complex)
    if np.any(np.abs(np.linalg.norm(vec, axis=-1) - 1) > 1e-10):
        raise ValueError("state is not normalized")
    # H on the real and imaginary parts (by linearity, for a real or a
    # complex h2), so that a real h2 gets no complex copy
    n = vec.shape[-1].bit_length() - 1
    parts = ring_apply(h2, np.stack([vec.real, vec.imag], axis=-1), n)
    hv = parts[..., 0] + 1j * parts[..., 1]
    r = hv - _dot(vec, hv)[..., None] * vec
    residual = np.sqrt(_dot(r.real, r.real) + _dot(r.imag, r.imag))
    if vec.ndim == 1:
        return float(residual), float(np.linalg.norm(spectrum.ground_vectors.conj().T @ vec))
    overlap = [np.linalg.norm(s.ground_vectors.conj().T @ v) for s, v in zip(spectrum, vec)]
    return residual, np.array(overlap)


@dataclass(frozen=True)
class Certificate:
    """ED certificate of the explicit ground state at one point. It holds no
    expected energy: its readers compare with -n*c0 of their own."""

    lowest_eigenvalue: float  # of the coupling form
    energy: float  # long-double Rayleigh quotient of the first ground vector
    residual: float  # of the explicit state under the coupling form
    overlap: float  # of the explicit state with the ground space
    degeneracy: int
    form_mismatch: float  # max |h_coupling - h_proj + c0*I| over the 4x4 bond terms


def certify(p):
    """Certify the explicit ground state at p under the coupling form, with
    one sector-wise eigensolve; H is only ever applied bond by bond. The
    projector form adds c0*identity to each bond term, so it has the same
    eigenvectors and residuals; form_mismatch checks that identity on the
    4x4 bond terms. A 1-D array p.g gives the list of its members'
    certificates, each equal to its own call, from one ring_spectrum and one
    explicit_ground_state per block of at most max(1, BLOCK_ENTRIES / 4^n) g.
    """
    certs = []
    for block in g_blocks(p, max(1, BLOCK_ENTRIES >> 2 * p.n)):
        h2 = bond_operator(block, "coupling")
        with _naming_g(block.g, p.n):
            specs = ring_spectrum(h2, p.n)
            states = explicit_ground_state(block).amplitudes
        c0 = constant_shift(block)
        energies = rayleigh_quotient(h2, np.array([s.ground_vectors[:, 0] for s in specs]))
        residuals, overlaps = ground_membership(h2, states, specs)
        h_proj = bond_operator(block, "projector")
        mismatch = np.abs(h2 - h_proj + c0[:, None, None] * np.eye(4)).max(axis=(-2, -1))
        rows = zip(specs, energies.tolist(), residuals.tolist(), overlaps.tolist(),
                   mismatch.tolist())
        certs += [Certificate(spec.eigenvalues[0], energy, residual, overlap,
                              spec.ground_space_dim, form_mismatch)
                  for spec, energy, residual, overlap, form_mismatch in rows]
    return certs if np.ndim(p.g) else certs[0]


"""Pauli matrices, their stack SIGMA and PAULI_PAIRS[a, b] = s_a x s_b, in the order of PAULI.

Conventions: sigma_z|0> = +|0>, site 1 occupies the most significant
bit of a computational-basis index.
"""

import numpy as np

SI = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

SIGMA = np.array([SI, SX, SY, SZ])  # s_0 = 1, s_x, s_y, s_z
PAULI = {"1": SI, "x": SX, "y": SY, "z": SZ}
PAULI_PAIRS = np.array([[np.kron(a, b) for b in SIGMA] for a in SIGMA])

"""Numpy rotation helpers shared by the tests.

perchsim holds a rotation as a row-major 9-tuple; the tests state their
reference formulas on 3x3 numpy arrays and convert with `mat` and `flat`.
"""

import math

import numpy as np


def mat(R):
    """A row-major 9-tuple as a 3x3 array."""
    return np.reshape(np.asarray(R, dtype=float), (3, 3))


def flat(M):
    """A 3x3 array as a row-major 9-tuple."""
    return tuple(np.ravel(M).tolist())


def rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

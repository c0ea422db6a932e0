"""Decoder for the JSON form of a complex matrix that reports write."""

import numpy as np


def decode(flat, n):
    """The n x n matrix of a row-major list of [re, im] pairs."""
    return np.array([complex(r, i) for r, i in flat]).reshape(n, n)

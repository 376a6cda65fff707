"""Kernel blocks (Omega, Pi) of a ``TotalGaussian``, read from its complements."""

import numpy as np


def symmetric(upper):
    """The symmetric matrix whose upper triangle ``upper`` stores."""
    return np.triu(upper) + np.triu(upper, 1).T


def kernel_blocks(tg):
    """Omega = 1 - (C+ + C-)/2 and Pi = (C- - C+)/2 from C+- = 1 - (Omega +- Pi)."""
    plus, minus = symmetric(tg.plus), symmetric(tg.minus)
    return np.eye(len(plus)) - 0.5 * (plus + minus), 0.5 * (minus - plus)

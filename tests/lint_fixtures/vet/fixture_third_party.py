"""Lint fixture: third-party imports outside their layers — must trip
``third-party-layering`` for every scipy import and for numpy outside the
numeric layers, not for the function-level numpy.random import."""

import numpy as np
from scipy.special import erf


def draw(seed):
    from numpy.random import default_rng
    return default_rng(seed).random()


def price(x):
    import scipy.stats
    from numpy import linalg
    return erf(x), scipy.stats, linalg, np

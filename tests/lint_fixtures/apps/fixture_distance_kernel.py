"""Fixture: k-means distances reduced over axis 2, the broadcast
expression ``repro.apps.kmeans.sq_dist`` replaced.  Every spelling must
trip ``distance-kernel``; other axes and the builtin must not."""

import numpy as np


def distances(pts, centers):
    d = (pts[:, None, :] - centers[None, :, :]) ** 2
    a = d.sum(axis=2)
    b = np.sum(d, axis=2)
    c = d.sum(2)
    e = np.sum(d, 2)
    return a, b, c, e


def not_distances(pts, parts):
    # sum(axis=2) in a comment is not a call
    return pts.sum(axis=1), np.sum(pts, 0), sum(parts, 2)

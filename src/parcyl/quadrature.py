"""The Gauss-Legendre rule shared by the expansions and the oracle, its
one panel generator (the Airy and Scorer quadratures and the oracle's), and
the one generator of the Gauss nodes of path polylines that every bound
integral runs on.

Plain numerics with no asymptotic machinery, so the oracle can use it and
stay independent of the expansions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Gauss-Legendre nodes per path segment in the bound integrals
SEGMENT_NODES = 32

#: path segments whose nodes are mapped and evaluated together: traced
#: paths run to thousands of segments, and one array over all their nodes
#: would hold tens of MB
BATCH_SEGMENTS = 128

#: nodes up to which the rows of a bound integrand go through numpy in one
#: call, where the cost per call dominates; on longer arrays a block of
#: rows costs more per element than one row, and its temporaries defeat the
#: allocator's reuse (page faults), so the rows go one by one
STACKED_NODES = 1024


@lru_cache(maxsize=32)
def gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [-1, 1] (shared, read-only)."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


def _panels(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule on each panel [lo, hi]
    between consecutive edges: two (panels x n) arrays."""
    x, w = gauss(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return half * x + 0.5 * (edges[1:] + edges[:-1])[:, None], half * w


def path_nodes(polylines):
    """Gauss nodes of several polylines, flat, in batches of up to
    BATCH_SEGMENTS segments in all: yields (nodes, elements, spans), with
    nodes zs + (ze - zs)(x + 1)/2 and elements (ze - zs) w/2 of the
    SEGMENT_NODES-point rule (x, w) on each segment [zs, ze], and spans
    listing (polyline index, start, stop) of each polyline's nodes in the
    batch, in order.  Summed over a polyline's spans, f(nodes) * elements
    is its line integral of f."""
    t, half_w = _unit_segment_rule(SEGMENT_NODES)
    verts = [np.asarray(v, dtype=complex) for v in polylines]
    zs = np.concatenate([v[:-1] for v in verts])[:, None]
    ze = np.concatenate([v[1:] for v in verts])[:, None]
    # each polyline's first segment in the flat run, and the end
    bounds = np.cumsum([0] + [max(len(v) - 1, 0) for v in verts]).tolist()
    for lo in range(0, len(zs), BATCH_SEGMENTS):
        hi = min(lo + BATCH_SEGMENTS, len(zs))
        dz = ze[lo:hi] - zs[lo:hi]
        spans = [(i, (max(a, lo) - lo) * len(t), (min(b, hi) - lo) * len(t))
                 for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
                 if max(a, lo) < min(b, hi)]
        yield (zs[lo:hi] + dz * t).reshape(-1), (dz * half_w).reshape(-1), spans


@lru_cache(maxsize=1)
def _unit_segment_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule moved to [0, 1]: nodes (x + 1)/2 and weights w/2
    (shared, read-only)."""
    x, w = gauss(n)
    return _read_only(0.5 * x + 0.5, 0.5 * w)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays

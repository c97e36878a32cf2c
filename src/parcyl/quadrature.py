"""The Gauss-Legendre rule shared by the expansions and the oracle, and
the Gauss nodes of a polyline that every bound integral runs on.

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
    """Nodes and weights of the n-point rule on [-1, 1] (shared arrays:
    callers must not modify them)."""
    return np.polynomial.legendre.leggauss(n)


def polyline_nodes(vertices):
    """Gauss nodes of the polyline through `vertices`, in batches of up to
    BATCH_SEGMENTS segments: yields (nodes, elements), one row of
    SEGMENT_NODES per segment [zs, ze], nodes zs + (ze - zs)(x + 1)/2 and
    elements (ze - zs) w/2 for the rule (x, w) on [-1, 1].  The sum of
    f(nodes) * elements over the batches is the line integral of f."""
    t, half_w = _unit_segment_rule(SEGMENT_NODES)
    v = np.asarray(vertices, dtype=complex)[:, None]
    for i in range(0, len(v) - 1, BATCH_SEGMENTS):
        ends = v[i:i + BATCH_SEGMENTS + 1]
        dz = ends[1:] - ends[:-1]
        yield ends[:-1] + dz * t, dz * half_w


def stacked_nodes(polylines):
    """The batches of `polyline_nodes` of several polylines, flat, packed
    into batches of up to BATCH_SEGMENTS segments in all: yields (nodes,
    elements, spans), spans listing (polyline index, start, stop) of each
    polyline batch within the flat arrays, in order."""
    group, size = [], 0
    for i, vertices in enumerate(polylines):
        for batch in polyline_nodes(vertices):
            if group and size + len(batch[0]) > BATCH_SEGMENTS:
                yield _stack(group)
                group, size = [], 0
            group.append((i, *batch))
            size += len(batch[0])
    if group:
        yield _stack(group)


def _stack(group) -> tuple:
    spans, stop = [], 0
    for i, nodes, _ in group:
        spans.append((i, stop, stop + nodes.size))
        stop += nodes.size
    return (np.concatenate([g[1] for g in group], axis=None),
            np.concatenate([g[2] for g in group], axis=None), spans)


@lru_cache(maxsize=1)
def _unit_segment_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule moved to [0, 1]: nodes (x + 1)/2 and weights w/2."""
    x, w = gauss(n)
    return 0.5 * x + 0.5, 0.5 * w

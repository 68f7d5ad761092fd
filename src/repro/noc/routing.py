"""Routing over on-chip topologies.

The simulator's interconnect model and the Eq 8 verification both need
per-pair hop counts; this module provides XY (dimension-ordered) routing for
meshes — path enumeration, not just distances — and a vectorised XY
link-load kernel for whole traffic patterns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.noc.topology import Mesh2D

__all__ = [
    "xy_route",
    "xy_link_loads",
    "path_link_loads",
]


def xy_route(mesh: Mesh2D, src: int, dst: int) -> list[int]:
    """The XY-routed path from src to dst inclusive of both endpoints.

    Dimension-ordered routing: travel along the row (X) first, then the
    column (Y).  Deadlock-free on meshes; its length is the Manhattan
    distance, i.e. the shortest possible path.
    """
    mesh.validate_node(src)
    mesh.validate_node(dst)
    r1, c1 = mesh.coords(src)
    r2, c2 = mesh.coords(dst)
    path = [src]
    c = c1
    while c != c2:
        c += 1 if c2 > c else -1
        path.append(mesh.node_at(r1, c))
    r = r1
    while r != r2:
        r += 1 if r2 > r else -1
        path.append(mesh.node_at(r, c2))
    return path


def xy_link_loads(
    mesh: Mesh2D, src: np.ndarray | Sequence[int], dst: np.ndarray | Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-link transfer counts of many XY-routed transfers at once.

    ``src[i] -> dst[i]`` is one transfer.  Returns ``(horizontal,
    vertical)``: ``horizontal[r, c]`` counts the transfers crossing the
    link between ``(r, c)`` and ``(r, c+1)`` (shape ``rows x cols-1``),
    ``vertical[r, c]`` those between ``(r, c)`` and ``(r+1, c)`` (shape
    ``rows-1 x cols``).

    XY routing puts each transfer on one row segment (in the source row)
    and one column segment (in the destination column), so each segment
    is added as +1/-1 into a per-row or per-column difference array and a
    cumulative sum yields the loads — equal to summing :func:`xy_route`
    paths, without enumerating any.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise ValueError(f"src and dst differ in length: {src.size} vs {dst.size}")
    for name, nodes in (("src", src), ("dst", dst)):
        if nodes.size and (nodes.min() < 0 or nodes.max() >= mesh.n_nodes):
            raise ValueError(f"{name} has nodes outside [0, {mesh.n_nodes})")
    rows, cols = mesh.rows, mesh.cols
    r1, c1 = np.divmod(src, cols)
    r2, c2 = np.divmod(dst, cols)

    def diff(first: np.ndarray, last: np.ndarray) -> np.ndarray:
        # +1 where a segment starts, -1 where it ends (flat grid indices);
        # bincount is the unbuffered scatter-add, faster than np.add.at
        size = rows * cols
        starts = np.bincount(first, minlength=size)
        return (starts - np.bincount(last, minlength=size)).reshape(rows, cols)

    h = diff(r1 * cols + np.minimum(c1, c2), r1 * cols + np.maximum(c1, c2))
    v = diff(np.minimum(r1, r2) * cols + c2, np.maximum(r1, r2) * cols + c2)
    return np.cumsum(h, axis=1)[:, :-1], np.cumsum(v, axis=0)[:-1, :]


def path_link_loads(mesh: Mesh2D, pairs: Sequence[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Count how many of the given (src, dst) transfers cross each link
    under XY routing — used to study reduction-traffic hotspots around the
    master core.  Keys are ``(u, v)`` with ``u < v``; idle links are
    omitted."""
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    h, v = xy_link_loads(mesh, ends[:, 0], ends[:, 1])
    cols = mesh.cols
    loads: dict[tuple[int, int], int] = {}
    for (r, c), load in zip(np.argwhere(h), h[h != 0]):
        u = int(r) * cols + int(c)
        loads[(u, u + 1)] = int(load)
    for (r, c), load in zip(np.argwhere(v), v[v != 0]):
        u = int(r) * cols + int(c)
        loads[(u, u + cols)] = int(load)
    return loads

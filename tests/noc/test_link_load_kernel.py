"""Property tests for the array kernels behind the NoC analysis.

``xy_link_loads`` must equal the sum of :func:`xy_route` paths, and the
closed-form ``average_hops`` / ``link_count`` of every named topology
must equal the generic enumeration in :class:`Topology`, which stays the
oracle.
"""

import numpy as np
import pytest

from repro.noc.contention import all_to_all_pattern, analyse_pattern, gather_pattern
from repro.noc.routing import path_link_loads, xy_link_loads, xy_route
from repro.noc.topology import (
    FullyConnected,
    Hypercube,
    Mesh2D,
    Ring,
    Topology,
    Torus2D,
    resolve_topology,
)


def _oracle_loads(mesh, pairs):
    """Per-link counts from routing every pair with ``xy_route``."""
    loads = {}
    for src, dst in pairs:
        path = xy_route(mesh, int(src), int(dst))
        for u, v in zip(path, path[1:]):
            key = (min(u, v), max(u, v))
            loads[key] = loads.get(key, 0) + 1
    return loads


class TestKernelMatchesRouteOracle:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_random_pair_multisets(self, n):
        rng = np.random.default_rng(1000 + n)
        mesh = Mesh2D(n)
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 120)), 2))
        assert path_link_loads(mesh, pairs) == _oracle_loads(mesh, pairs)

    @pytest.mark.parametrize("n,shape", [(8, (2, 4)), (128, (8, 16)), (12, (3, 4))])
    def test_non_square_meshes(self, n, shape):
        mesh = Mesh2D(n)
        assert (mesh.rows, mesh.cols) == shape
        rng = np.random.default_rng(n)
        pairs = rng.integers(0, n, size=(300, 2))
        assert path_link_loads(mesh, pairs) == _oracle_loads(mesh, pairs)

    @pytest.mark.parametrize("n", [4, 8, 16, 36, 64])
    def test_gather_with_non_corner_master(self, n):
        mesh = Mesh2D(n)
        master = mesh.node_at(mesh.rows // 2, mesh.cols // 2)
        pairs = gather_pattern(mesh, master)
        assert path_link_loads(mesh, pairs) == _oracle_loads(mesh, pairs)

    @pytest.mark.parametrize("x", [2, 3])
    def test_patterns_with_x_above_one(self, x):
        mesh = Mesh2D(12)
        for pairs in (gather_pattern(mesh, 5, x), all_to_all_pattern(mesh, x)):
            expected = _oracle_loads(mesh, pairs)
            assert path_link_loads(mesh, pairs) == expected
            # x copies of each transfer load every link x times
            single = _oracle_loads(mesh, pairs[::x])
            assert expected == {k: x * v for k, v in single.items()}

    def test_analysis_statistics_match_oracle(self):
        mesh = Mesh2D(32)
        pairs = all_to_all_pattern(mesh)
        loads = _oracle_loads(mesh, pairs)
        a = analyse_pattern(mesh, pairs)
        assert a.total_transfers == sum(loads.values())
        assert a.max_link_load == max(loads.values())
        assert a.busy_links == len(loads)

    @pytest.mark.parametrize("n", [1, 2, 8, 12, 64])
    def test_matrix_shapes(self, n):
        mesh = Mesh2D(n)
        h, v = xy_link_loads(mesh, [0], [n - 1])
        assert h.shape == (mesh.rows, mesh.cols - 1)
        assert v.shape == (mesh.rows - 1, mesh.cols)

    def test_accepts_sequences(self):
        mesh = Mesh2D(9)
        h, v = xy_link_loads(mesh, [0, 8], [8, 0])
        assert int(h.sum() + v.sum()) == 2 * mesh.hop_distance(0, 8)

    def test_rejects_out_of_range_nodes(self):
        mesh = Mesh2D(4)
        with pytest.raises(ValueError, match="dst"):
            xy_link_loads(mesh, [0], [4])
        with pytest.raises(ValueError, match="src"):
            xy_link_loads(mesh, [-1], [0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="length"):
            xy_link_loads(Mesh2D(4), [0, 1], [2])


class TestPatternArrays:
    def test_gather_rows(self):
        mesh = Mesh2D(9)
        pairs = gather_pattern(mesh, 4, x=2)
        assert pairs.shape == (16, 2)
        assert set(pairs[:, 1].tolist()) == {4}
        assert sorted(pairs[:, 0].tolist()) == sorted(
            [s for s in range(9) if s != 4] * 2)

    def test_all_to_all_rows(self):
        mesh = Mesh2D(6)
        pairs = all_to_all_pattern(mesh)
        assert sorted(map(tuple, pairs.tolist())) == [
            (s, d) for s in range(6) for d in range(6) if s != d]


_NAMED = ("mesh", "torus", "ring", "crossbar")


class TestClosedFormTopologySums:
    @pytest.mark.parametrize("name", _NAMED)
    def test_average_hops_equals_enumeration(self, name):
        for n in range(1, 65):
            topo = resolve_topology(name, n)
            # exact: the closed form is the same integer sum, divided alike
            assert topo.average_hops() == Topology.average_hops(topo), (name, n)

    @pytest.mark.parametrize("name", _NAMED)
    def test_link_count_equals_enumeration(self, name):
        for n in range(1, 65):
            topo = resolve_topology(name, n)
            assert topo.link_count() == Topology.link_count(topo), (name, n)

    def test_hypercube_link_count_equals_enumeration(self):
        for d in range(7):
            h = Hypercube(2 ** d)
            assert h.link_count() == Topology.link_count(h)

    @pytest.mark.parametrize("cls", [Mesh2D, Torus2D, Ring, FullyConnected])
    def test_no_pair_enumeration(self, cls, monkeypatch):
        """The closed forms never call ``hop_distance`` or ``edges``."""
        def forbid(*args, **kwargs):
            raise AssertionError("closed form enumerated pairs or edges")

        topo = cls(256)
        monkeypatch.setattr(cls, "hop_distance", forbid)
        monkeypatch.setattr(cls, "edges", forbid)
        assert topo.average_hops() > 0
        assert topo.link_count() > 0

"""The k-means workload recovers well-separated clusters."""

import numpy as np

from repro.workloads.datasets import make_blobs
from repro.workloads.kmeans import KMeansWorkload


def _pairs(counts):
    return float((counts * (counts - 1) / 2).sum())


def adjusted_rand_index(labels, truth):
    """Hubert–Arabie adjusted Rand index of two flat labelings."""
    _, a = np.unique(labels, return_inverse=True)
    _, b = np.unique(truth, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1)
    index = _pairs(table)
    rows, cols = _pairs(table.sum(axis=1)), _pairs(table.sum(axis=0))
    expected = rows * cols / _pairs(np.array([labels.size]))
    return (index - expected) / ((rows + cols) / 2 - expected)


class TestWorkloadQuality:
    def test_kmeans_produces_quality_clustering(self):
        ds = make_blobs(800, 4, 4, seed=7, spread=0.03)
        # ground truth: nearest true center
        truth = np.argmin(
            np.linalg.norm(ds.points[:, None] - ds.true_centers[None], axis=2), axis=1
        )
        ex = KMeansWorkload(ds, max_iterations=25, seed=3, init="kmeans++").execute(2)
        labels = ex.outputs["assignments"]
        assert adjusted_rand_index(truth, truth) == 1.0
        assert adjusted_rand_index(labels, truth) > 0.9
        # purity: each found cluster is dominated by one true cluster
        table = np.zeros((labels.max() + 1, truth.max() + 1))
        np.add.at(table, (labels, truth), 1)
        assert table.max(axis=1).sum() / labels.size > 0.95

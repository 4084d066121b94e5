"""Lloyd k-means over the complete group, with deterministic seeding
policies and a fixed-partition mode for exact table reproduction."""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import NUMERIC, AttributeSpec, Dataset, Record, Schema
from .errors import ConfigError, InsufficientDataError, config_integer, config_seed

MAX_ITERATIONS = 100


class SeededRandom(NamedTuple):
    """Pick k distinct records as initial centers, uniformly at random."""

    seed: int


class FarthestFirst(NamedTuple):
    """Pick a random first center, then greedily the record farthest
    from all chosen centers.  Deterministic given the seed; spreads
    centers well on small data."""

    seed: int


class FixedPartition(NamedTuple):
    """Take the cluster membership as given: no iteration runs, and
    each centroid, the mean of its group's records in row order,
    depends only on which ids the group holds.  Exists so golden
    comparisons do not depend on which local optimum an iterative run
    lands in."""

    groups: tuple[tuple[str, ...], ...]


InitPolicy = SeededRandom | FarthestFirst | FixedPartition


class ClusterModel(NamedTuple):
    """Centroids plus the record-to-cluster assignment that produced
    them; k is len(centroids).  sse_history holds the total
    within-cluster sum of squared distances after every assignment step
    (one entry for fixed partitions); converged is False when Lloyd hit
    MAX_ITERATIONS, and reseeds counts the empty clusters it re-seeded."""

    centroids: tuple[tuple[float, ...], ...]
    assignment: Mapping[str, int]
    sse_history: tuple[float, ...] = ()
    converged: bool = True
    reseeds: int = 0

    def members(self, cluster_index: int) -> tuple[str, ...]:
        return tuple(rid for rid, c in self.assignment.items() if c == cluster_index)


def check_clustering(k: int | None, init: InitPolicy) -> None:
    """ConfigError unless k is None (one cluster per class) or a positive
    int, and init is a policy with a non-negative int seed or id lists."""
    if k is not None and config_integer(k, "k") < 1:
        raise ConfigError(f"k must be positive, got {k}")
    if isinstance(init, (SeededRandom, FarthestFirst)):
        config_seed(init.seed, "init seed")
    elif not isinstance(init, FixedPartition):
        raise ConfigError(f"unknown init policy {init!r}")
    elif not isinstance(init.groups, (list, tuple)) or not all(isinstance(g, (list, tuple)) for g in init.groups):
        raise ConfigError("fixed-partition init needs 'groups': a list of id lists")


def resolve_k(k: int | None, labeled: Dataset) -> int:
    """k, or when it is None the number of decision classes in labeled."""
    k = labeled.n_classes if k is None else k
    if not k:
        raise ConfigError("dataset has no labels; supply k explicitly")
    return k


def cluster(g1: Dataset | Sequence[Record], k: int | None, init: InitPolicy) -> ClusterModel:
    """Cluster complete records, given as a dataset or as a sequence
    of records with numeric cells, into k clusters (one per class if None).

    Iterative policies need k distinct points and run Lloyd steps until
    the assignment stops changing or MAX_ITERATIONS is hit;
    nearest-centroid ties go to the lowest cluster index, and a cluster
    left empty is re-seeded from the point farthest from its own
    centroid among the clusters that can spare one.  A fixed partition
    gives the labels up front; its centroids are their means, as
    Lloyd's are on every exit.
    """
    check_clustering(k, init)
    if not isinstance(g1, Dataset):
        records = tuple(g1)
        schema = Schema(tuple(AttributeSpec(f"a{j}", NUMERIC) for j in range(len(records[0].cells) if records else 1)))
        g1 = Dataset(schema, [r.id for r in records], [r.label for r in records], [r.cells for r in records])
    if not len(g1):
        raise InsufficientDataError("no complete records to cluster")
    k = resolve_k(k, g1)
    if len(g1) < k:
        raise InsufficientDataError(f"{len(g1)} complete records cannot form {k} clusters")
    missing = np.isnan(g1.matrix).any(axis=1)
    if missing.any():
        raise ConfigError(f"record {g1.ids[int(missing.argmax())]} has missing cells")
    ids, points = g1.ids, g1.matrix
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate record ids")

    if isinstance(init, FixedPartition):
        labels = _partition_labels(init, ids, k)
        centers, converged, reseeds = _means(points, labels, k), True, 0
        sse_history = [float(((points - centers[labels]) ** 2).sum())]
    else:
        distinct = _distinct_up_to(points, k)
        if k > distinct:
            raise InsufficientDataError(f"{k} clusters over {distinct} distinct complete points")
        centers = _initial_centers(init, points, k)
        labels = np.full(len(points), -1, dtype=int)
        sse_history: list[float] = []
        converged, reseeds = False, 0
        for _ in range(MAX_ITERATIONS):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)  # argmin takes the first minimum: lowest index wins ties
            empties = np.flatnonzero(np.bincount(new_labels, minlength=k) == 0).tolist()
            for empty in empties:
                own = ((points - centers[new_labels]) ** 2).sum(axis=1)
                # A sole member is never moved, so no re-seed empties
                # another cluster; with m >= k some cluster has two.
                own[np.bincount(new_labels, minlength=k)[new_labels] < 2] = -1.0
                j = int(own.argmax())
                centers[empty] = points[j]
                new_labels[j] = empty
            reseeds += len(empties)
            sse_history.append(float(((points - centers[new_labels]) ** 2).sum()))
            if (new_labels == labels).all():
                converged = True
                break
            labels = new_labels
            centers = _means(points, labels, k)

    # centers are the means of labels on every exit: a step that moves a
    # point recomputes them, and a step that moves none re-seeded only
    # clusters whose sole member is the point they were set to.
    centroids, assignment = tuple(map(tuple, centers.tolist())), dict(zip(ids, labels.tolist()))
    return ClusterModel(centroids, assignment, tuple(sse_history), converged, reseeds)


def _distinct_up_to(points: np.ndarray, k: int) -> int:
    """The number of distinct points, counted up to k, in O(m k n)."""
    fresh = np.ones(len(points), dtype=bool)
    count = 0
    while count < k and fresh.any():
        fresh &= (points != points[int(fresh.argmax())]).any(axis=1)
        count += 1
    return count


def _mean(points: np.ndarray) -> np.ndarray:
    """The mean of the points, each coordinate's values added row by
    row from the first (np.mean adds a single column pairwise, so its
    rounding would depend on the number of attributes)."""
    return np.cumsum(points, axis=0)[-1] / len(points)


def _means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Mean of each cluster's points, which the re-seed step keeps
    populated: after a stable sort each cluster is one slice of its
    points in row order, added by _mean (np.add.reduceat rounds
    differently)."""
    ends = np.cumsum(np.bincount(labels, minlength=k)).tolist()
    grouped = points[np.argsort(labels, kind="stable")]
    return np.array([_mean(grouped[lo:hi]) for lo, hi in zip([0] + ends, ends)])


def _partition_labels(init: FixedPartition, ids: Sequence[str], k: int) -> np.ndarray:
    """Each record's group in a fixed partition, in row order, checked
    to place every record in exactly one of k non-empty groups."""
    if len(init.groups) != k:
        raise ConfigError(f"fixed partition has {len(init.groups)} groups but k={k}")
    index = {rid: i for i, rid in enumerate(ids)}
    labels = np.full(len(ids), -1)
    for c, group in enumerate(init.groups):
        if not group:
            raise ConfigError("fixed partition contains an empty group")
        for rid in group:
            if not isinstance(rid, str) or rid not in index:
                raise ConfigError(f"fixed partition names unknown record {rid!r}")
            if labels[index[rid]] >= 0:
                raise ConfigError(f"fixed partition repeats record {rid!r}")
            labels[index[rid]] = c
    missing = sorted(ids[i] for i in np.flatnonzero(labels < 0))
    if missing:
        raise ConfigError(f"fixed partition does not cover records {missing}")
    return labels


def _initial_centers(init: SeededRandom | FarthestFirst, points: np.ndarray, k: int) -> np.ndarray:
    m = len(points)
    rng = np.random.default_rng(init.seed)
    if isinstance(init, SeededRandom):
        return points[rng.choice(m, size=k, replace=False)].copy()
    chosen = [int(rng.integers(m))]
    nearest = np.full(m, np.inf)  # squared distance to the nearest chosen center
    while len(chosen) < k:
        np.minimum(nearest, ((points - points[chosen[-1]]) ** 2).sum(axis=1), out=nearest)
        chosen.append(int(nearest.argmax()))
    return points[chosen].copy()

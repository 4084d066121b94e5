"""Lloyd k-means over the complete group, with deterministic seeding
policies and a fixed-partition mode for exact table reproduction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataset import NUMERIC, AttributeSpec, Dataset, Record, Schema
from .errors import ConfigError, InsufficientDataError

MAX_ITERATIONS = 100


@dataclass(frozen=True)
class SeededRandom:
    """Pick k distinct records as initial centers, uniformly at random."""

    seed: int


@dataclass(frozen=True)
class FarthestFirst:
    """Pick a random first center, then greedily the record farthest
    from all chosen centers.  Deterministic given the seed; spreads
    centers well on small data."""

    seed: int


@dataclass(frozen=True)
class FixedPartition:
    """Take the cluster membership as given: centroids are computed
    once and no iteration runs.  Exists so golden comparisons do not
    depend on which local optimum an iterative run lands in."""

    groups: tuple[tuple[str, ...], ...]


InitPolicy = SeededRandom | FarthestFirst | FixedPartition


@dataclass(frozen=True)
class ClusterModel:
    """Centroids plus the record-to-cluster assignment that produced
    them; k is len(centroids).  sse_history holds the total
    within-cluster sum of squared distances after every assignment step
    (one entry for fixed partitions); converged is False when Lloyd hit
    MAX_ITERATIONS, and reseeds counts the empty clusters it re-seeded."""

    centroids: tuple[tuple[float, ...], ...]
    assignment: Mapping[str, int]
    sse_history: tuple[float, ...] = field(default=())
    converged: bool = True
    reseeds: int = 0

    def members(self, cluster_index: int) -> tuple[str, ...]:
        return tuple(rid for rid, c in self.assignment.items() if c == cluster_index)


def cluster(g1: Dataset | Sequence[Record], k: int, init: InitPolicy) -> ClusterModel:
    """Cluster complete records, given as an encoded dataset or as a
    sequence of records with numeric cells, into k clusters.

    Iterative policies need k distinct points and run Lloyd steps until
    the assignment stops changing or MAX_ITERATIONS is hit;
    nearest-centroid ties go to the lowest cluster index, and a cluster
    left empty is re-seeded from the point farthest from its own
    centroid among the clusters that can spare one.
    """
    if not isinstance(g1, Dataset):
        records = tuple(g1)
        arity = len(records[0].cells) if records else 1
        g1 = Dataset(Schema(tuple(AttributeSpec(f"a{j}", NUMERIC) for j in range(arity))), records)
    if not len(g1):
        raise InsufficientDataError("no complete records to cluster")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(g1) < k:
        raise InsufficientDataError(f"{len(g1)} complete records cannot form {k} clusters")
    missing = np.isnan(g1.matrix).any(axis=1)
    if missing.any():
        raise ValueError(f"record {g1.ids[int(missing.argmax())]} has missing cells")
    ids, points = g1.ids, g1.matrix
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate record ids")

    if isinstance(init, FixedPartition):
        return _fixed_partition_model(init, ids, points, k)

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


def _fixed_partition_model(init: FixedPartition, ids: Sequence[str], points: np.ndarray, k: int) -> ClusterModel:
    if len(init.groups) != k:
        raise ConfigError(f"fixed partition has {len(init.groups)} groups but k={k}")
    index = {rid: i for i, rid in enumerate(ids)}
    seen: set[str] = set()
    for group in init.groups:
        if not group:
            raise ConfigError("fixed partition contains an empty group")
        for rid in group:
            if rid not in index:
                raise ConfigError(f"fixed partition names unknown record {rid!r}")
            if rid in seen:
                raise ConfigError(f"fixed partition repeats record {rid!r}")
            seen.add(rid)
    if seen != set(ids):
        missing = sorted(set(ids) - seen)
        raise ConfigError(f"fixed partition does not cover records {missing}")

    assignment = {rid: c for c, group in enumerate(init.groups) for rid in group}
    centers = np.array([_mean(points[[index[rid] for rid in group]]) for group in init.groups])
    labels = np.array([assignment[rid] for rid in ids])
    sse = float(((points - centers[labels]) ** 2).sum())
    return ClusterModel(
        centroids=tuple(tuple(c) for c in centers.tolist()),
        assignment=assignment,
        sse_history=(sse,),
    )


def _initial_centers(init: InitPolicy, points: np.ndarray, k: int) -> np.ndarray:
    m = len(points)
    if isinstance(init, SeededRandom):
        rng = np.random.default_rng(init.seed)
        picks = rng.choice(m, size=k, replace=False)
        return points[picks].copy()
    if isinstance(init, FarthestFirst):
        rng = np.random.default_rng(init.seed)
        chosen = [int(rng.integers(m))]
        nearest = np.full(m, np.inf)  # squared distance to the nearest chosen center
        while len(chosen) < k:
            np.minimum(nearest, ((points - points[chosen[-1]]) ** 2).sum(axis=1), out=nearest)
            chosen.append(int(nearest.argmax()))
        return points[chosen].copy()
    raise TypeError(f"unknown init policy: {init!r}")

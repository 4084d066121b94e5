"""Lloyd k-means over the complete group, with deterministic seeding
policies and a fixed-partition mode for exact table reproduction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataset import Record
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
    (one entry for fixed partitions)."""

    centroids: tuple[tuple[float, ...], ...]
    assignment: Mapping[str, int]
    sse_history: tuple[float, ...] = field(default=())

    def members(self, cluster_index: int) -> tuple[str, ...]:
        return tuple(rid for rid, c in self.assignment.items() if c == cluster_index)


def _usable_points(records: Sequence[Record]) -> np.ndarray:
    """The records' cells as an (m, n) float matrix, checked to hold no
    missing cell (None or NaN) and no symbol.  NumPy infers a numeric
    dtype exactly when every cell is a number; otherwise the records
    are scanned in order for the one to name."""
    points = np.array([r.cells for r in records])
    if points.dtype.kind not in "biuf":
        for r in records:
            if not r.is_complete:
                raise ValueError(f"record {r.id} has missing cells")
            if any(isinstance(c, str) for c in r.cells):
                raise ValueError(f"record {r.id} is not encoded")
    points = points.astype(float, copy=False)
    missing = np.isnan(points).any(axis=1)
    if missing.any():
        raise ValueError(f"record {records[int(missing.argmax())].id} has missing cells")
    return points


def cluster(g1: Sequence[Record], k: int, init: InitPolicy) -> ClusterModel:
    """Cluster complete records into k clusters.

    Iterative policies need k distinct points and run Lloyd steps until
    the assignment stops changing or MAX_ITERATIONS is hit;
    nearest-centroid ties go to the lowest cluster index, and a cluster
    left empty is re-seeded from the point farthest from its own
    centroid among the clusters that can spare one.
    """
    records = list(g1)
    if not records:
        raise InsufficientDataError("no complete records to cluster")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(records) < k:
        raise InsufficientDataError(f"{len(records)} complete records cannot form {k} clusters")
    points = _usable_points(records)

    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate record ids")

    if isinstance(init, FixedPartition):
        return _fixed_partition_model(init, ids, points, k)

    distinct = len({r.cells for r in records})
    if k > distinct:
        raise InsufficientDataError(f"{k} clusters over {distinct} distinct complete points")
    centers = _initial_centers(init, points, k)
    labels = np.full(len(records), -1, dtype=int)
    sse_history: list[float] = []
    for _ in range(MAX_ITERATIONS):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)  # argmin takes the first minimum: lowest index wins ties
        for empty in [c for c in range(k) if not (new_labels == c).any()]:
            own = ((points - centers[new_labels]) ** 2).sum(axis=1)
            # A sole member is never moved, so no re-seed empties
            # another cluster; with m >= k some cluster has two.
            own[np.bincount(new_labels, minlength=k)[new_labels] < 2] = -1.0
            j = int(own.argmax())
            centers[empty] = points[j]
            new_labels[j] = empty
        sse_history.append(float(((points - centers[new_labels]) ** 2).sum()))
        if (new_labels == labels).all():
            break
        labels = new_labels
        centers = _means(points, labels, k)

    # Finalize centers as exact means of the final assignment; a no-op
    # after convergence, and restores the centroid invariant if the
    # iteration cap was hit mid-step.
    centers = _means(points, labels, k)
    return ClusterModel(
        centroids=tuple(tuple(c) for c in centers.tolist()),
        assignment={rid: int(c) for rid, c in zip(ids, labels)},
        sse_history=tuple(sse_history),
    )


def _means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Mean of each cluster's points; the re-seed step keeps every
    cluster populated."""
    return np.array([points[labels == c].mean(axis=0) for c in range(k)])


def _fixed_partition_model(init: FixedPartition, ids: list[str], points: np.ndarray, k: int) -> ClusterModel:
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
    centers = np.array(
        [points[[index[rid] for rid in group]].mean(axis=0) for group in init.groups]
    )
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
        while len(chosen) < k:
            d2 = ((points[:, None, :] - points[chosen][None, :, :]) ** 2).sum(axis=2)
            chosen.append(int(d2.min(axis=1).argmax()))
        return points[chosen].copy()
    raise TypeError(f"unknown init policy: {init!r}")

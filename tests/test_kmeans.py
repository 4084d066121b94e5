"""Lloyd iteration, seeding policies, and the fixed-partition mode."""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cmimpute.casestudy import (
    CLASSIFICATION_PARTITION,
    IMPUTATION_PARTITION,
    expected_clusters,
)
from cmimpute import kmeans
from cmimpute.dataset import Dataset, Record, split_groups
from cmimpute.errors import ConfigError, InsufficientDataError
from cmimpute.evaluate import make_synthetic_dataset, mask_cells
from cmimpute.kmeans import (
    MAX_ITERATIONS,
    ClusterModel,
    FarthestFirst,
    FixedPartition,
    SeededRandom,
    _initial_centers,
    cluster,
)


def rec(rid: str, *cells: float) -> Record:
    return Record(rid, tuple(float(c) for c in cells))


def grid_records(points) -> list[Record]:
    return [rec(f"R{i + 1}", *p) for i, p in enumerate(points)]


def partition_sse(records, groups) -> float:
    by_id = {r.id: np.array([float(c) for c in r.cells]) for r in records}
    total = 0.0
    for group in groups:
        pts = np.array([by_id[rid] for rid in group])
        total += float(((pts - pts.mean(axis=0)) ** 2).sum())
    return total


# --- reference partitions ---


def test_fixed_partition_reproduces_reference_imputation_clusters(missing_dataset):
    g1 = split_groups(missing_dataset).g1
    model = cluster(g1, 2, FixedPartition(IMPUTATION_PARTITION))
    expected = expected_clusters("table06_clusters")
    computed = {frozenset(model.members(c)) for c in range(len(model.centroids))}
    assert computed == {frozenset(ids) for ids in expected.values()}


def test_fixed_partition_reproduces_reference_classification_clusters(
    classification_dataset,
):
    model = cluster(
        classification_dataset.records, 2, FixedPartition(CLASSIFICATION_PARTITION)
    )
    expected = expected_clusters("table18_clusters")
    computed = {frozenset(model.members(c)) for c in range(len(model.centroids))}
    assert computed == {frozenset(ids) for ids in expected.values()}


def centroid(records) -> tuple[float, ...]:
    """The mean of the records: the centroid of a one-group partition."""
    ids = tuple(r.id for r in records)
    return cluster(records, 1, FixedPartition((ids,))).centroids[0]


def test_centroid_of_first_reference_cluster(missing_dataset):
    members = [missing_dataset.record(r) for r in ("R1", "R4", "R6", "R9")]
    assert centroid(members) == pytest.approx((1.75, 6.25, 1.25, 10.0))


def test_centroid_of_second_classification_cluster(classification_dataset):
    members = [classification_dataset.record(r) for r in ("R2", "R7", "R8", "R3", "R5")]
    assert centroid(members) == pytest.approx((2.2, 5.6, 1.8, 5.8))


def test_centroid_of_single_record_is_its_cells():
    assert centroid([rec("R1", 3, 1, 4)]) == (3.0, 1.0, 4.0)


def test_centroid_rejects_empty_and_incomplete_members():
    with pytest.raises(InsufficientDataError, match="no complete records"):
        centroid([])
    with pytest.raises(ValueError, match="missing"):
        centroid([Record("R1", (1.0, None))])
    with pytest.raises(ValueError, match="could not convert string to float: 'sym'"):
        centroid([Record("R1", ("sym", 1.0))])


def test_a_fixed_partition_s_centroids_do_not_depend_on_the_listed_order():
    # (1e16 + 1) - 1e16 is 0 but (-1e16 + 1e16) + 1 is 1: a centroid
    # summed in listed order would differ between the two listings.
    records = grid_records([(1e16,), (1.0,), (-1e16,), (5.0,)])
    listings = [(("R1", "R2", "R3"), ("R4",)), (("R3", "R1", "R2"), ("R4",))]
    assert [cluster(records, 2, FixedPartition(p)).centroids for p in listings] == [((0.0,), (5.0,))] * 2
    rng = np.random.default_rng(0)
    for _ in range(200):
        records = grid_records(rng.normal(size=(6, 2)) * 10.0 ** rng.integers(-3, 4, (6, 2)))
        labels = rng.permutation([0, 1] + rng.integers(0, 2, 4).tolist())
        groups = [[r.id for r, c in zip(records, labels) if c == g] for g in (0, 1)]
        rotated = [g[1:] + g[:1] for g in groups]
        assert cluster(records, 2, FixedPartition(groups)) == cluster(records, 2, FixedPartition(rotated))


# --- degenerate sizes and validation ---


def test_k1_yields_single_cluster_at_global_mean():
    records = grid_records([(0, 0), (2, 0), (4, 6)])
    model = cluster(records, 1, SeededRandom(0))
    assert len(model.centroids) == 1
    assert set(model.assignment.values()) == {0}
    assert model.centroids[0] == pytest.approx((2.0, 2.0))


def test_fewer_records_than_clusters_is_insufficient_data():
    with pytest.raises(InsufficientDataError):
        cluster(grid_records([(0, 0), (1, 1)]), 3, SeededRandom(0))


def test_empty_input_is_insufficient_data():
    with pytest.raises(InsufficientDataError):
        cluster([], 1, SeededRandom(0))


def test_nonpositive_k_rejected():
    with pytest.raises(ValueError, match="positive"):
        cluster(grid_records([(0, 0)]), 0, SeededRandom(0))


@pytest.mark.parametrize(
    ("k", "init", "message"),
    [
        ("2", FarthestFirst(0), "k must be an integer, got '2'"),
        (2.0, FarthestFirst(0), "k must be an integer, got 2.0"),
        (True, FarthestFirst(0), "k must be an integer, got True"),
        (0, FarthestFirst(0), "k must be positive, got 0"),
        (3, "x", "unknown init policy 'x'"),
        (2, SeededRandom(-1), "init seed must be non-negative, got -1"),
        (2, FarthestFirst(1.5), "init seed must be an integer, got 1.5"),
        (2, FixedPartition(5), "fixed-partition init needs 'groups': a list of id lists"),
        (2, FixedPartition(("R1", "R2")), "fixed-partition init needs 'groups': a list of id lists"),
        (2, FixedPartition(((["R1"],), ("R2",))), r"fixed partition names unknown record \['R1'\]"),
    ],
)
def test_a_bad_k_or_init_policy_is_a_config_error_in_the_cli_s_words(k, init, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        cluster(grid_records([(0, 0), (1, 1), (5, 5)]), k, init)


def test_k_none_takes_one_cluster_per_class():
    records = [Record("R1", (0.0,), "A"), Record("R2", (1.0,), "B"), Record("R3", (9.0,), "A")]
    assert cluster(records, None, FarthestFirst(0)) == cluster(records, 2, FarthestFirst(0))
    with pytest.raises(ConfigError, match="no labels"):
        cluster(grid_records([(0, 0), (1, 1)]), None, FarthestFirst(0))


def test_duplicate_record_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        cluster([rec("R1", 0), rec("R1", 1)], 1, SeededRandom(0))
    ds = make_synthetic_dataset(12, seed=1)
    with pytest.raises(ConfigError, match="^duplicate record ids$"):
        cluster(Dataset(ds.schema, ("R1",) * len(ds), ds.labels, ds.matrix), 2, FarthestFirst(0))


def test_fixed_partition_validation():
    records = grid_records([(0, 0), (1, 0), (5, 5)])
    with pytest.raises(ConfigError, match="unknown record"):
        cluster(records, 2, FixedPartition((("R1", "R9"), ("R2", "R3"))))
    with pytest.raises(ConfigError, match="repeats"):
        cluster(records, 2, FixedPartition((("R1", "R2"), ("R2", "R3"))))
    with pytest.raises(ConfigError, match="does not cover"):
        cluster(records, 2, FixedPartition((("R1",), ("R2",))))
    with pytest.raises(ConfigError, match="empty group"):
        cluster(records, 2, FixedPartition((("R1", "R2", "R3"), ())))
    with pytest.raises(ConfigError, match="groups but k"):
        cluster(records, 3, FixedPartition((("R1",), ("R2", "R3"))))


def test_empty_cluster_is_reseeded_to_keep_k_clusters():
    # Seed 3 picks two of the identical points as initial centers, so
    # the first assignment sends everything to cluster 0 and the
    # re-seed rule must repopulate cluster 1 with the far point.
    records = grid_records([(1, 1), (1, 1), (1, 1), (4, 5)])
    points = np.array([r.cells for r in records])
    assert (_initial_centers(SeededRandom(3), points, 2) == (1.0, 1.0)).all()
    model = cluster(records, 2, SeededRandom(3))
    assert model.assignment == {"R1": 0, "R2": 0, "R3": 0, "R4": 1}
    assert model.centroids == ((1.0, 1.0), (4.0, 5.0))
    assert model.reseeds >= 1
    assert model.converged


def test_reseed_never_empties_another_cluster():
    # Here the point farthest from its own centroid is the sole member
    # of its cluster; moving it would leave that cluster empty.
    records = grid_records([(1,), (3,), (1,), (3,), (3,), (1,), (1,), (1,), (2,), (0,), (2,)])
    model = cluster(records, 4, SeededRandom(503676))
    assert sorted(set(model.assignment.values())) == [0, 1, 2, 3]
    assert sorted(c[0] for c in model.centroids) == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("policy", [SeededRandom, FarthestFirst])
def test_identical_points_cannot_form_two_clusters_for_any_seed(policy):
    for seed in range(16):
        with pytest.raises(InsufficientDataError, match="2 clusters over 1 distinct"):
            cluster(grid_records([(1, 1)] * 4), 2, policy(seed))


# Eight points on four distinct locations: with k = 5 the re-seed step
# cannot keep every cluster populated, whatever the seed.
THIN_GRID = [(0, 2), (0, 0), (0, 1), (0, 0), (1, 0), (0, 1), (1, 0), (0, 0)]


@pytest.mark.parametrize("seed", range(8))
def test_more_clusters_than_distinct_points_is_insufficient_data(seed):
    with pytest.raises(InsufficientDataError, match="5 clusters over 4 distinct"):
        cluster(grid_records(THIN_GRID), 5, FarthestFirst(seed))


def test_models_up_to_the_distinct_point_count_are_finite():
    for k in range(1, 5):
        for seed in range(8):
            model = cluster(grid_records(THIN_GRID), k, FarthestFirst(seed))
            assert np.isfinite(model.centroids).all()
            assert sorted(set(model.assignment.values())) == list(range(k))


# --- convergence properties ---


def test_sse_history_never_increases():
    rng = np.random.default_rng(11)
    points = np.vstack(
        [rng.normal(center, 1.0, size=(10, 3)) for center in ((0, 0, 0), (8, 8, 8), (0, 9, 0))]
    )
    model = cluster(grid_records(points), 3, SeededRandom(5))
    history = model.sse_history
    assert len(history) >= 1
    assert all(later <= earlier + 1e-9 for earlier, later in zip(history, history[1:]))


def test_converged_assignment_matches_nearest_centroid(missing_dataset):
    g1 = split_groups(missing_dataset).g1
    model = cluster(g1, 2, FarthestFirst(14))
    centers = np.array(model.centroids)
    for r in g1.records:
        point = np.array([float(c) for c in r.cells])
        d2 = ((point - centers) ** 2).sum(axis=1)
        assert d2[model.assignment[r.id]] <= d2.min() + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-30, 30), st.floats(-30, 30)),
        min_size=4,
        max_size=12,
    ),
    st.integers(0, 999),
    st.booleans(),
)
def test_convergence_oracle_on_small_instances(points, seed, farthest):
    assume(len(set(points)) >= 2)  # two clusters need two distinct points
    init = FarthestFirst(seed) if farthest else SeededRandom(seed)
    records = grid_records(points)
    model = cluster(records, 2, init)
    centers = np.array(model.centroids)
    # At convergence every record sits with (one of) its nearest centroids.
    for r in records:
        point = np.array([float(c) for c in r.cells])
        d2 = ((point - centers) ** 2).sum(axis=1)
        assert d2[model.assignment[r.id]] <= d2.min() + 1e-9
    history = model.sse_history
    assert all(later <= earlier + 1e-9 for earlier, later in zip(history, history[1:]))
    # Centroid invariant: each center is the mean of its members.
    for c in range(len(model.centroids)):
        member_pts = np.array(
            [[float(v) for v in r.cells] for r in records if model.assignment[r.id] == c]
        )
        assert np.allclose(centers[c], member_pts.mean(axis=0), atol=1e-9)


def test_same_seed_same_data_identical_model(missing_dataset):
    g1 = split_groups(missing_dataset).g1
    a = cluster(g1, 2, FarthestFirst(21))
    b = cluster(g1, 2, FarthestFirst(21))
    assert a == b


def test_fixed_partition_centroid_invariant(missing_dataset):
    g1 = split_groups(missing_dataset).g1
    model = cluster(g1, 2, FixedPartition(IMPUTATION_PARTITION))
    for c in range(len(model.centroids)):
        members = [missing_dataset.record(rid) for rid in model.members(c)]
        assert model.centroids[c] == pytest.approx(centroid(members), abs=1e-9)
    assert len(model.sse_history) == 1


# --- the reference partitions are not luck ---


def exhaustive_best_two_partition(records):
    ids = [r.id for r in records]
    best = None
    for size in range(1, len(ids) // 2 + 1):
        for combo in combinations(ids, size):
            g1 = tuple(combo)
            g2 = tuple(i for i in ids if i not in combo)
            sse = partition_sse(records, (g1, g2))
            key = frozenset((frozenset(g1), frozenset(g2)))
            if best is None or sse < best[0] - 1e-12:
                best = (sse, key)
    return best


def test_reference_imputation_partition_is_the_global_sse_minimum(missing_dataset):
    g1 = split_groups(missing_dataset).g1
    best_sse, best_key = exhaustive_best_two_partition(g1.records)
    reference = frozenset(frozenset(g) for g in IMPUTATION_PARTITION)
    assert best_key == reference
    assert best_sse == pytest.approx(25.583333333, abs=1e-6)


def test_reference_classification_partition_is_the_global_sse_minimum(
    classification_dataset,
):
    records = classification_dataset.records
    best_sse, best_key = exhaustive_best_two_partition(records)
    reference = frozenset(frozenset(g) for g in CLASSIFICATION_PARTITION)
    assert best_key == reference
    assert best_sse == pytest.approx(41.85, abs=1e-6)


# --- the model's shape ---


def test_model_has_k_centroids_and_assigns_every_record():
    model = cluster(grid_records([(0, 0), (0, 1), (9, 9)]), 2, SeededRandom(1))
    assert len(model.centroids) == 2
    assert set(model.assignment) == {"R1", "R2", "R3"}
    assert sorted(set(model.assignment.values())) == [0, 1]


def test_cluster_rejects_unencoded_and_incomplete_records():
    with pytest.raises(ValueError, match="could not convert string to float: 'sym'"):
        cluster([Record("R1", ("sym", 1.0)), Record("R2", (1.0, 1.0))], 1, SeededRandom(0))
    with pytest.raises(ValueError, match="missing"):
        cluster([Record("R1", (None, 1.0)), Record("R2", (1.0, 1.0))], 1, SeededRandom(0))
    holed, _ = mask_cells(make_synthetic_dataset(12, seed=1), [("R1", 0)])
    with pytest.raises(ConfigError, match="^record R1 has missing cells$"):
        cluster(holed, 2, FarthestFirst(0))


# --- the arithmetic of a mean ---


def left_to_right_mean(rows) -> tuple[float, ...]:
    """Each coordinate's values added row by row from the first, then
    divided by the row count."""
    total = list(rows[0])
    for row in rows[1:]:
        total = [t + v for t, v in zip(total, row)]
    return tuple(t / len(rows) for t in total)


@pytest.mark.parametrize("n", [1, 2, 7])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_centroids_add_their_members_left_to_right(n, data):
    # NumPy's mean adds a single column pairwise, which rounds
    # differently from a row loop once a cluster has nine or more members.
    rows = data.draw(
        st.lists(st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * n), min_size=1, max_size=40)
    )
    records = grid_records(rows)
    fixed = cluster(records, 1, FixedPartition((tuple(r.id for r in records),)))
    lloyd = cluster(records, 1, SeededRandom(0))
    assert fixed.centroids == lloyd.centroids == (left_to_right_mean(rows),)


# --- convergence flags ---


def test_a_run_cut_by_the_iteration_cap_is_not_converged():
    records = grid_records([(0, 0), (0, 1), (5, 5), (5, 6), (9, 0)])
    assert cluster(records, 2, SeededRandom(0)).converged
    with mock.patch.object(kmeans, "MAX_ITERATIONS", 1):
        capped = cluster(records, 2, SeededRandom(0))
    assert not capped.converged
    assert len(capped.sse_history) == 1


def test_fixed_partitions_and_hand_built_models_count_as_converged(missing_dataset):
    model = cluster(split_groups(missing_dataset).g1, 2, FixedPartition(IMPUTATION_PARTITION))
    assert (model.converged, model.reseeds) == (True, 0)
    hand_built = ClusterModel(((0.0,),), {"R1": 0})
    assert (hand_built.converged, hand_built.reseeds, hand_built.sse_history) == (True, 0, ())


# --- the Lloyd loop against a per-cluster scan ---


def scan_lloyd(points: np.ndarray, k: int, init, cap: int):
    """k-means as first written, the oracle of the fast loop: initial
    centers chosen by recomputing the distance to every chosen center
    each round, an empty cluster found and each mean taken by one mask
    per cluster, and the means recomputed once more after the loop;
    with whether the assignment stopped changing within cap steps."""
    m = len(points)
    rng = np.random.default_rng(init.seed)
    if isinstance(init, SeededRandom):
        centers = points[rng.choice(m, size=k, replace=False)].copy()
    else:
        chosen = [int(rng.integers(m))]
        while len(chosen) < k:
            d2 = ((points[:, None, :] - points[chosen][None, :, :]) ** 2).sum(axis=2)
            chosen.append(int(d2.min(axis=1).argmax()))
        centers = points[chosen].copy()

    def means(labels):
        return np.array([np.cumsum(points[labels == c], axis=0)[-1] / (labels == c).sum() for c in range(k)])

    labels = np.full(m, -1)
    history = []
    converged = False
    for _ in range(cap):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new = d2.argmin(axis=1)
        for empty in [c for c in range(k) if not (new == c).any()]:
            own = ((points - centers[new]) ** 2).sum(axis=1)
            own[np.bincount(new, minlength=k)[new] < 2] = -1.0
            j = int(own.argmax())
            centers[empty] = points[j]
            new[j] = empty
        history.append(float(((points - centers[new]) ** 2).sum()))
        if (new == labels).all():
            converged = True
            break
        labels = new
        centers = means(labels)
    return tuple(map(tuple, means(labels).tolist())), labels.tolist(), tuple(history), converged


def assert_matches_scan(rows, k, init, cap=MAX_ITERATIONS):
    with mock.patch.object(kmeans, "MAX_ITERATIONS", cap):
        model = cluster(grid_records(rows), k, init)
    centroids, labels, history, converged = scan_lloyd(np.array(rows, dtype=float), k, init, cap)
    assert model.centroids == centroids
    assert list(model.assignment.values()) == labels
    assert model.sse_history == history
    assert model.converged == converged
    return model


# A few values shared across points, so draws repeat points and tie
# distances, next to arbitrary floats.
SHARED = st.sampled_from([-2.0, -0.7, 0.0, 1e-3, 0.1, 0.3, 1.0, 7.5])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_lloyd_matches_the_per_cluster_scan(data):
    n = data.draw(st.integers(1, 10), label="n")
    value = SHARED | st.floats(-1e3, 1e3, allow_nan=False)
    pool = data.draw(st.lists(st.tuples(*[value] * n), min_size=1, max_size=6), label="pool")
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24), label="rows")
    k = data.draw(st.integers(1, min(len(set(rows)), 5)), label="k")
    init = data.draw(st.sampled_from([SeededRandom, FarthestFirst]))(data.draw(st.integers(0, 999)))
    cap = data.draw(st.sampled_from([1, 2, MAX_ITERATIONS]), label="cap")
    assert_matches_scan(rows, k, init, cap)


def test_a_converging_step_can_re_seed():
    # (0 - 1e-200) ** 2 underflows to 0.0, so both points sit on both
    # centers: every step sends both to cluster 0 and re-seeds cluster 1
    # with the first point, and the second step repeats the first.
    model = assert_matches_scan([(0.0,), (1e-200,)], 2, SeededRandom(0))
    assert (model.converged, model.reseeds) == (True, 2)
    assert model.centroids == ((1e-200,), (0.0,))

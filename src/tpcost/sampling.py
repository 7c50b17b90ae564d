"""Task selection for fine-tuning on a new device: cluster all tensor-program
features with k-means, then walk the clusters from largest to smallest and
greedily pick the closest not-yet-selected task to each cluster center."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, EmptySelection, TooFewPoints,
                     TooFewTasks, ValidationError)

KMEANS_MAX_ITER = 300


@dataclass
class ClusterModel:
    centers: np.ndarray  # (kappa, d)
    assignment: np.ndarray  # (n,) cluster index per point
    sizes: np.ndarray  # (kappa,)


@dataclass
class TaskFeatureSet:
    task_id: str
    features: np.ndarray  # (n_programs, d)

    def validate(self) -> None:
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValidationError(
                f"task '{self.task_id}' needs a non-empty 2-D feature array")


@dataclass
class DistanceTable:
    psi: np.ndarray  # (kappa, n_tasks) mean distance of task features to center
    task_ids: list[str]


def _pairwise_dist(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - centers[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def _kmeans_pp_init(x: np.ndarray, kappa: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((kappa, x.shape[1]))
    centers[0] = x[int(rng.integers(0, n))]
    closest_sq = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, kappa):
        total = closest_sq.sum()
        if total == 0.0:
            # all remaining points coincide with a center; pick uniformly
            idx = int(rng.integers(0, n))
        else:
            idx = int(rng.choice(n, p=closest_sq / total))
        centers[i] = x[idx]
        closest_sq = np.minimum(closest_sq, ((x - centers[i]) ** 2).sum(axis=1))
    return centers


def kmeans(x, kappa: int, seed: int = 0,
           init_centers: np.ndarray | None = None) -> ClusterModel:
    """Lloyd's iterations from a k-means++ start until the assignment stops
    changing (or 300 iterations). An emptied cluster steals the point that
    is farthest from its own center. Deterministic for a fixed seed."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if kappa < 1:
        raise ValidationError("kappa must be >= 1")
    if n < kappa:
        raise TooFewPoints(f"{n} points < kappa={kappa}")
    rng = np.random.default_rng(seed)
    if init_centers is not None:
        centers = np.asarray(init_centers, dtype=np.float64).copy()
        if centers.ndim == 1:
            centers = centers[:, None]
        if centers.shape != (kappa, x.shape[1]):
            raise DimensionMismatch("init_centers shape mismatch")
    else:
        centers = _kmeans_pp_init(x, kappa, rng)

    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        dist = _pairwise_dist(x, centers)
        new_assignment = dist.argmin(axis=1)
        # repair empty clusters by stealing the worst-placed point
        for c in range(kappa):
            if not np.any(new_assignment == c):
                own_dist = dist[np.arange(n), new_assignment]
                candidates = np.flatnonzero(
                    np.bincount(new_assignment, minlength=kappa)[new_assignment] > 1)
                steal = candidates[own_dist[candidates].argmax()]
                new_assignment[steal] = c
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(kappa):
            members = x[assignment == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    sizes = np.bincount(assignment, minlength=kappa)
    return ClusterModel(centers=centers, assignment=assignment, sizes=sizes)


def build_distance_table(clusters: ClusterModel,
                         tasks: list[TaskFeatureSet]) -> DistanceTable:
    """psi[e, t] = mean L2 distance of task t's features to center e."""
    if not tasks:
        raise TooFewTasks("need at least one task")
    d = clusters.centers.shape[1]
    psi = np.empty((clusters.centers.shape[0], len(tasks)))
    for t, task in enumerate(tasks):
        task.validate()
        feats = np.asarray(task.features, dtype=np.float64)
        if feats.shape[1] != d:
            raise DimensionMismatch(
                f"task '{task.task_id}' has dim {feats.shape[1]}, centers {d}")
        psi[:, t] = _pairwise_dist(feats, clusters.centers).mean(axis=0)
    return DistanceTable(psi=psi, task_ids=[t.task_id for t in tasks])


def select_tasks(x, kappa: int, tasks: list[TaskFeatureSet], seed: int = 0,
                 init_centers: np.ndarray | None = None) -> list[str]:
    """Pick kappa task ids: cluster all features, order clusters by size
    (descending, ties to the lower cluster index), and give each cluster the
    closest remaining task (ties to the earlier task)."""
    if len(tasks) < kappa:
        raise TooFewTasks(f"{len(tasks)} tasks < kappa={kappa}")
    clusters = kmeans(x, kappa, seed=seed, init_centers=init_centers)
    table = build_distance_table(clusters, tasks)
    # stable sort on -size keeps lower cluster index first among ties
    cluster_order = np.argsort(-clusters.sizes, kind="stable")
    selected: list[str] = []
    remaining = set(range(len(tasks)))
    for e in cluster_order:
        row = table.psi[e]
        best = min(remaining, key=lambda t: (row[t], t))
        selected.append(table.task_ids[best])
        remaining.discard(best)
    return selected


def latent_epsilon(z_all, z_selected) -> float:
    """Coverage of a selection: the largest distance from any point to its
    nearest selected point, by the distance k-means clusters with."""
    z_all = np.atleast_2d(np.asarray(z_all, dtype=np.float64))
    z_selected = np.atleast_2d(np.asarray(z_selected, dtype=np.float64))
    if z_selected.shape[0] == 0:
        raise EmptySelection("need at least one selected point")
    return float(_pairwise_dist(z_all, z_selected).min(axis=1).max())

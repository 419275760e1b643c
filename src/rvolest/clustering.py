"""Residual-based classification of increments into jump/spike vs diffusive.

The absolute standardized residuals |h^{-1/2} S_{j-1}(theta_hat)^{-1/2} dY_j|
are approximately |N(0,1)| draws on diffusive increments and far larger on
increments hit by a jump or spike.  K-means (Lloyd, quantile seeding plus
seeded random-point restarts) splits them; clusters are ordered by ascending
size and the largest becomes the non-jump part C, the union of the others the
flagged part D.  Because one spike perturbs two consecutive increments, an optional
pair rule reassigns the second index of each flagged consecutive pair back
to C so every spike is counted once.

`residuals` reads S (d = 1) or z = L^{-1} eps (d >= 2) from likelihood's
per-increment record, produced without dS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateInput
from .likelihood import ObservationPath, _increments
from .model import ModelSpec

# Unused here; the benchmark's span list wraps them until ROADMAP item 9 retires them.
from .likelihood import covariate_block, scaled_increments  # noqa: F401
from .mathcore import chol_spd  # noqa: F401


def residuals(path: ObservationPath, model: ModelSpec, theta_hat) -> np.ndarray:
    """|S_{j-1}(theta_hat)^{-1/2} eps_j| for j = 1..n (Euclidean norm for d > 1)."""
    inc = _increments(path, model, theta_hat, whiten_only=True)
    if model.d == 1:
        return np.abs(inc.eps) / np.sqrt(inc.s)
    return np.linalg.norm(inc.z, axis=1)


@dataclass(frozen=True)
class Partition:
    """K-means result on 1-d values; cluster ids are ordered by ascending size,
    so id k-1 is the largest cluster (= the non-jump part C)."""

    k: int
    labels: np.ndarray           # (n,) ints in [0, k)
    centers: np.ndarray          # (k,) ordered consistently with labels
    sizes: np.ndarray            # (k,) ints
    wcss: float

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def in_d(self) -> np.ndarray:
        """Boolean mask of flagged (jump/spike) increments."""
        return self.labels < self.k - 1

    @property
    def d_indices(self) -> np.ndarray:
        """1-based increment indices in the flagged part D."""
        return np.flatnonzero(self.in_d) + 1


# K-means starts per call: the quantile start plus RESTARTS - 1 random ones.
RESTARTS = 10


def _lloyd(values: np.ndarray, centers: np.ndarray, max_iter: int = 300):
    labels = np.zeros(len(values), dtype=int)
    for _ in range(max_iter):
        dist = np.abs(values[:, None] - centers[None, :])
        new_labels = np.argmin(dist, axis=1)
        for c in range(len(centers)):
            members = values[new_labels == c]
            if members.size:
                centers[c] = members.mean()
            else:
                # reseed an empty cluster at the point worst served so far
                far = np.argmax(np.min(dist, axis=1))
                centers[c] = values[far]
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    wcss = float(np.sum((values - centers[labels]) ** 2))
    return labels, centers, wcss


def _quantile_init(values, k) -> np.ndarray:
    return np.quantile(values, (2.0 * np.arange(k) + 1.0) / (2.0 * k))


def kmeans(values, k: int, seed: int = 0) -> Partition:
    """Best-of-restarts Lloyd K-means on nonnegative scalars.

    Seeding is mass-oriented: one quantile-seeded start plus RESTARTS - 1
    random-data-point restarts.  On heavy-tailed residual data this
    reproduces the diagnostic signature the K-scan relies on (|D| stays at
    outlier scale until K is large enough that a cluster splits off the
    diffusive bulk, at which point |D| explodes); extreme-seeking seedings
    such as farthest-point instead keep subdividing the outlier range
    indefinitely and never show the break.  Deterministic for fixed
    (values, k, seed).  Raises ValueError naming the first non-finite value,
    and DegenerateInput when every value is identical.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    n = values.shape[0]
    if k < 2:
        raise ValueError("need k >= 2")
    if n < k:
        raise ValueError(f"need at least k={k} values, got {n}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"values[{bad[0]}] is {values[bad[0]]}, not a finite number")
    if np.ptp(values) == 0.0:
        raise DegenerateInput("all values identical; nothing to cluster")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    best = None
    for restart in range(RESTARTS):
        if restart == 0:
            centers = _quantile_init(values, k)
        else:
            centers = values[rng.choice(n, size=k, replace=False)].astype(float)
        labels, centers, wcss = _lloyd(values, centers)
        if best is None or wcss < best[2]:
            best = (labels, centers, wcss)
    labels, centers, wcss = best

    sizes = np.bincount(labels, minlength=k)
    # ascending by size; ties broken toward the smaller center becoming C
    order = np.lexsort((-centers, sizes))
    relabel = np.empty(k, dtype=int)
    relabel[order] = np.arange(k)
    return Partition(
        k=k,
        labels=relabel[labels],
        centers=centers[order],
        sizes=sizes[order],
        wcss=wcss,
    )


@dataclass(frozen=True)
class KSweepResult:
    ks: tuple[int, ...]
    d_sizes: tuple[int, ...]
    suggested_k: int
    abrupt_found: bool
    partition: Partition = field(compare=False, repr=False)  # the scan's, at suggested_k


def _check_k_range(k_range) -> list[int]:
    """The K values of a scan, sorted; ValueError unless there is one and all are >= 2."""
    ks = sorted(int(k) for k in k_range)
    if not ks:
        raise ValueError("k_range is empty")
    if ks[0] < 2:
        raise ValueError("k_range must contain integers >= 2")
    return ks


def suggest_k(
    values,
    k_range=range(2, 11),
    seed: int = 0,
    threshold: float = 8.0,
) -> KSweepResult:
    """Scan K, watch |D|, and suggest the scanned K just before the first one
    where |D| grows by more than `threshold` over the previous scanned K, with
    the scan's partition there.  Without such a change the scan is
    inconclusive and the max of the range is suggested with abrupt_found=False.

    The default threshold separates the two growth regimes seen on residual
    data: |D| creeps up by factors below ~6 while extra clusters refine the
    outlier range, then jumps by a factor above ~10 at the K where a cluster
    first splits off the diffusive bulk.
    """
    ks = _check_k_range(k_range)
    parts = [kmeans(values, k, seed=seed) for k in ks]
    sizes = tuple(int(part.in_d.sum()) for part in parts)
    breaks = [i for i in range(1, len(ks)) if sizes[i] >= threshold * max(sizes[i - 1], 1)]
    i = breaks[0] - 1 if breaks else len(ks) - 1
    return KSweepResult(ks=tuple(ks), d_sizes=sizes, suggested_k=ks[i],
                        abrupt_found=bool(breaks), partition=parts[i])


class MergeMode(enum.Enum):
    SPIKE_PAIR = "spike-pair"
    OFF = "off"


def merge_consecutive(partition: Partition, mode: MergeMode = MergeMode.SPIKE_PAIR) -> Partition:
    """Reassign the second index of each flagged consecutive pair to C.

    Sweeps left to right on the evolving flags, so a run {3,4,5} keeps 3,
    drops 4 (pair 3-4), and keeps 5 (4 is no longer flagged).
    """
    if mode is MergeMode.OFF:
        return partition
    flags = partition.in_d.copy()
    labels = partition.labels.copy()
    c_label = partition.k - 1
    for j in range(len(flags) - 1):
        if flags[j] and flags[j + 1]:
            flags[j + 1] = False
            labels[j + 1] = c_label
    sizes = np.bincount(labels, minlength=partition.k)
    return Partition(
        k=partition.k,
        labels=labels,
        centers=partition.centers.copy(),
        sizes=sizes,
        wcss=partition.wcss,
    )

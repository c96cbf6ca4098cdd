"""Generative model with group-heteroscedastic noise.

Each sample is a low-rank Gaussian signal plus additive noise whose
variance is constant inside a sample group but differs across the L
groups:

    y = Q @ diag(sqrt(lambdas)) @ z + eta,     z ~ N(0, I_k),

with Q an orthonormal d-by-k frame (the ground truth) and eta either
Gaussian with covariance v_l * I_d or, for the sub-Gaussian variant, iid
uniform on [-sqrt(3 v_l), +sqrt(3 v_l)] per entry so the variance still
matches v_l. Group sizes and variances are known model inputs, never
estimated here.

Datasets can be written to and read from a directory (one binary file
per block plus a small JSON header) and round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .linalg import RngStream, as_matrix, frozen, symmetrize
from .stiefel import StiefelPoint


def validate_lambdas(lambdas, k: int | None = None) -> np.ndarray:
    """Signal strengths must be positive and strictly decreasing."""
    arr = np.asarray(lambdas, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("signal strengths must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError("signal strengths must be finite and positive")
    if np.any(np.diff(arr) >= 0):
        raise ValueError(
            "signal strengths must be strictly decreasing; ties break the "
            "strict ordering the analysis relies on"
        )
    if k is not None and arr.size != k:
        raise ValueError(f"expected {k} signal strengths, got {arr.size}")
    return arr


class NoiseKind(Enum):
    """Noise families supported by the sampler."""

    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"


@dataclass(frozen=True, eq=False)
class SignalModel:
    """Ground-truth frame plus strictly decreasing signal strengths."""

    q_truth: StiefelPoint
    lambdas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lambdas", frozen(validate_lambdas(self.lambdas, self.q_truth.k)))

    @property
    def d(self) -> int:
        return self.q_truth.d

    @property
    def k(self) -> int:
        return self.q_truth.k

    def signal_covariance(self) -> np.ndarray:
        """Rank-k second moment Q @ diag(lambdas) @ Q.T of the signal part."""
        q = self.q_truth.x
        return q @ (self.lambdas[:, None] * q.T)


@dataclass(frozen=True)
class NoiseGroups:
    """Sample-group sizes and their noise variances.

    Variances must be positive and pairwise distinct: equal variances
    collapse two groups and break the strict ordering of the per-group
    weights downstream.
    """

    sizes: tuple[int, ...]
    variances: tuple[float, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        variances = tuple(float(v) for v in self.variances)
        if len(sizes) == 0 or len(sizes) != len(variances):
            raise ValueError("need one size per variance, at least one group")
        if any(s < 1 for s in sizes):
            raise ValueError("every group must contain at least one sample")
        if any(not np.isfinite(v) or v <= 0 for v in variances):
            raise ValueError("noise variances must be finite and positive")
        if len(set(variances)) != len(variances):
            raise ValueError(
                "noise variances must be pairwise distinct; equal variances "
                "violate the strict ordering of the group weights"
            )
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "variances", variances)

    @property
    def l(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def proportions(self) -> np.ndarray:
        return np.asarray(self.sizes, dtype=np.float64) / self.n

    def mean_variance(self) -> float:
        """Sample-weighted average noise variance."""
        return float(np.dot(self.proportions, self.variances))


@dataclass(frozen=True, eq=False)
class GroupedDataset:
    """The L sample blocks, block l holding n_l columns of dimension d."""

    blocks: tuple[np.ndarray, ...]
    k: int
    groups: NoiseGroups
    noise: NoiseKind = NoiseKind.GAUSSIAN
    seed: int | None = None
    stream: int | None = None

    def __post_init__(self):
        blocks = tuple(as_matrix(b, f"block {i}") for i, b in enumerate(self.blocks))
        if len(blocks) != self.groups.l:
            raise ValueError(f"expected {self.groups.l} blocks, got {len(blocks)}")
        d = blocks[0].shape[0]
        for i, (block, size) in enumerate(zip(blocks, self.groups.sizes)):
            if block.shape != (d, size):
                raise ValueError(
                    f"block {i} has shape {block.shape}, expected ({d}, {size})"
                )
        object.__setattr__(self, "blocks", tuple(frozen(block) for block in blocks))

    @property
    def d(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def l(self) -> int:
        return self.groups.l

    @property
    def n(self) -> int:
        return self.groups.n

    def __repr__(self) -> str:
        return (
            f"GroupedDataset(d={self.d}, k={self.k}, sizes={self.groups.sizes}, "
            f"variances={self.groups.variances}, noise={self.noise.value})"
        )


def draw_noise(kind: NoiseKind, variance: float, rows: int, cols: int,
               gen: np.random.Generator) -> np.ndarray:
    """One noise block with per-entry variance ``variance``."""
    if variance <= 0:
        raise ValueError(f"noise variance must be positive, got {variance}")
    if kind is NoiseKind.GAUSSIAN:
        return np.sqrt(variance) * gen.standard_normal((rows, cols))
    if kind is NoiseKind.UNIFORM:
        half_width = np.sqrt(3.0 * variance)
        return gen.uniform(-half_width, half_width, size=(rows, cols))
    raise ValueError(f"unknown noise kind {kind!r}")


def sample_dataset(model: SignalModel, groups: NoiseGroups, kind: NoiseKind,
                   rng: RngStream) -> GroupedDataset:
    """Draw a full grouped dataset from the model.

    Per block, the latent factors are drawn first and the noise second, in
    group order, from a single generator; this fixes the draw layout so
    identical streams reproduce identical datasets.
    """
    gen = rng.generator()
    q = model.q_truth.x
    theta = np.sqrt(model.lambdas)
    blocks = []
    for size, variance in zip(groups.sizes, groups.variances):
        z = gen.standard_normal((model.k, size))
        eta = draw_noise(kind, variance, model.d, size, gen)
        blocks.append(q @ (theta[:, None] * z) + eta)
    return GroupedDataset(
        blocks=tuple(blocks), k=model.k, groups=groups, noise=kind,
        seed=rng.seed, stream=rng.stream,
    )


def expected_covariance(model: SignalModel, groups: NoiseGroups) -> np.ndarray:
    """Population covariance of a pooled sample: signal part plus the
    sample-weighted noise floor on the diagonal."""
    return model.signal_covariance() + groups.mean_variance() * np.eye(model.d)


def expected_group_covariance(model: SignalModel, groups: NoiseGroups,
                              index: int) -> np.ndarray:
    """Expected contribution of group ``index`` (0-based) to the pooled
    sample covariance: (n_l / n) * (signal covariance + v_l * I)."""
    if not 0 <= index < groups.l:
        raise ValueError(f"group index {index} out of range [0, {groups.l})")
    weight = groups.sizes[index] / groups.n
    v = groups.variances[index]
    return weight * (model.signal_covariance() + v * np.eye(model.d))


def sample_covariance(dataset: GroupedDataset) -> np.ndarray:
    """Pooled (uncentered) sample covariance of all blocks."""
    acc = np.zeros((dataset.d, dataset.d))
    for block in dataset.blocks:
        acc += block @ block.T
    return symmetrize(acc / dataset.n)


_META_NAME = "meta.json"


def save_dataset(dataset: GroupedDataset, directory) -> Path:
    """Write the dataset to ``directory``: meta.json plus one .npy per block.

    The binary blocks round-trip float64 exactly, so a saved experiment is
    replayable bit for bit.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": 1,
        "d": dataset.d,
        "k": dataset.k,
        "l": dataset.l,
        "sizes": list(dataset.groups.sizes),
        "variances": list(dataset.groups.variances),
        "noise": dataset.noise.value,
        "seed": dataset.seed,
        "stream": dataset.stream,
    }
    (directory / _META_NAME).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    for i, block in enumerate(dataset.blocks):
        np.save(directory / f"block_{i:03d}.npy", block)
    return directory


def load_dataset(directory) -> GroupedDataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    directory = Path(directory)
    meta_path = directory / _META_NAME
    if not meta_path.is_file():
        raise OSError(f"no dataset header at {meta_path}")
    meta = json.loads(meta_path.read_text())
    groups = NoiseGroups(sizes=tuple(meta["sizes"]), variances=tuple(meta["variances"]))
    blocks = tuple(
        np.load(directory / f"block_{i:03d}.npy") for i in range(meta["l"])
    )
    return GroupedDataset(
        blocks=blocks, k=int(meta["k"]), groups=groups,
        noise=NoiseKind(meta["noise"]), seed=meta.get("seed"), stream=meta.get("stream"),
    )

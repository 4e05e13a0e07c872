"""The hierarchical graphical model: parameters, simulation, exact moments.

A replicate of the model is generated in three levels: a shared anchor W is
drawn from the family's level density under (s0, c0); one link value S_jk is
drawn per node pair from the tilted link density with intensity c_jk; and
each node observation Y_j is drawn from the level density under the updated
parameters s_j* = s0 + sum_k S_jk and c_j* = c0 + sum_k c_jk.  Marginally
every node is distributed like W, and the pairwise correlations have a closed
form in c0 and the edge intensities.

Links and fitted edge intensities are stored by node pair: a replicate's
links are one row of an (n, P) array and the intensities a (P,) vector, with
P = p(p-1)/2 columns in ``node_pairs(p)`` order, (0, 1), (0, 2), ..., (p-2, p-1).
``node_sums`` turns such columns into the per-node sums that the node levels
take, sum_k S_jk and sum_k c_jk, adding node j's pairs in increasing k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InfiniteVarianceError,
    SingularModelError,
)
from .families import Family, FamilyKind, get_family

__all__ = [
    "ModelParams",
    "Latents",
    "Dataset",
    "node_pairs",
    "node_sums",
    "draw_latents",
    "simulate",
    "marginal_moments",
    "pairwise_correlation",
    "correlation_matrix",
    "precision_check_3x3",
    "log_extended_likelihood",
]


def node_pairs(p: int) -> list[tuple[int, int]]:
    """The node pairs (j, k), j < k, in the column order of every pair axis."""
    return [(j, k) for j in range(p) for k in range(j + 1, p)]


@functools.lru_cache(maxsize=None)
def _pair_columns(p: int) -> np.ndarray:
    """(p, p - 1): row j holds the columns of node j's pairs, which
    ``node_pairs`` lists in increasing order of the other node."""
    pairs = node_pairs(p)
    columns = np.array([[e for e, pair in enumerate(pairs) if j in pair] for j in range(p)])
    columns.setflags(write=False)  # every caller shares the cached array
    return columns


def node_sums(values: np.ndarray, p: int) -> np.ndarray:
    """Per-node sums of pair-indexed values, shape (..., P) to (..., p).

    Node j adds the values of its pairs one after another in increasing
    order of the other node, as a row sum of the symmetric p x p matrix does
    below 8 nodes: one add over every node and leading index per step.
    """
    values = np.asarray(values, dtype=float)
    columns = _pair_columns(p)
    total = values[..., columns[:, 0]]
    for step in range(1, p - 1):
        total += values[..., columns[:, step]]
    return total


def _expect_shape(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array; DomainError naming ``shape`` if it has another."""
    array = np.asarray(value, dtype=float)
    if array.shape != shape:
        raise DomainError(f"{name} must have shape {shape}, got {array.shape}")
    return array


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass
class ModelParams:
    """Global parameters: family tag, (s0, c0) and the edge-intensity matrix.

    The edge matrix must be symmetric with a zero diagonal and nonnegative
    entries (integers for the binomial/negative-binomial link families).
    Entries equal to zero encode degenerate links whose value is identically
    zero, which renders the incident node pair conditionally independent.
    """

    family: FamilyKind
    s0: float
    c0: float
    edge_intensity: np.ndarray

    def __post_init__(self):
        fam = get_family(self.family)
        self.family = fam.kind
        self.s0 = float(self.s0)
        self.c0 = float(self.c0)
        fam.check_hyper(self.s0, self.c0)
        c = np.array(self.edge_intensity, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 2:
            raise DomainError("edge_intensity must be a square matrix with p >= 2")
        if not np.array_equal(c, c.T):
            raise DomainError("edge_intensity must be symmetric")
        if np.any(np.diag(c) != 0.0):
            raise DomainError("edge_intensity diagonal must be zero")
        if not np.all(np.isfinite(c)) or np.any(c < 0.0):
            raise DomainError("edge intensities must be finite and nonnegative")
        if fam.integer_intensity and np.any(c != np.round(c)):
            raise DomainError(
                f"{fam.kind.value}: edge intensities are trial counts and must be integers"
            )
        c.setflags(write=False)
        self.edge_intensity = c

    @property
    def p(self) -> int:
        return self.edge_intensity.shape[0]

    @property
    def row_sums(self) -> np.ndarray:
        """Per-node total incident intensity, sum_k c_jk."""
        return self.edge_intensity.sum(axis=1)

    @property
    def edges(self) -> np.ndarray:
        """The edge intensities as a (P,) vector in ``node_pairs`` order."""
        j, k = np.array(node_pairs(self.p)).T
        return self.edge_intensity[j, k]


@dataclass
class Latents:
    """Latents of n replicates: the anchors ``w``, shape (n,), and the links,
    shape (n, P) in ``node_pairs`` order."""

    w: np.ndarray
    links: np.ndarray


@dataclass
class Dataset:
    """An n x p matrix of observations with one replicate per row."""

    y: np.ndarray
    node_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        if y.ndim != 2:
            raise DomainError("dataset must be a 2-d array of replicates by nodes")
        n, p = y.shape
        if n < 1 or p < 2:
            raise DomainError(f"dataset needs n >= 1 and p >= 2, got {n} x {p}")
        y.setflags(write=False)
        self.y = y
        if not self.node_names:
            self.node_names = [f"y{j + 1}" for j in range(p)]
        if len(self.node_names) != p:
            raise DomainError("node_names length must match the number of columns")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    def validate_support(self, family) -> None:
        """Raise SupportViolationError naming the first offending cell."""
        from .errors import SupportViolationError

        fam = get_family(family)
        ok = fam.in_mean_space(self.y)
        if not np.all(ok):
            i, j = np.argwhere(~ok)[0]
            raise SupportViolationError(
                f"value {self.y[i, j]!r} outside the {fam.kind.value} mean space "
                f"{fam.mean_space}",
                row=int(i) + 1,
                column=int(j) + 1,
            )


def draw_latents(fam: Family, s0: float, c0: float, edges: np.ndarray, n: int,
                 rng: np.random.Generator) -> Latents:
    """The first two levels for n replicates: the anchors under (s0, c0), then
    each pair's links under its intensity in ``edges`` (P,), pair after pair.
    A zero intensity draws nothing and leaves its links at 0."""
    w = np.asarray(fam.sample_w(s0, c0, rng, size=n), dtype=float)
    links = np.zeros((n, edges.size), dtype=float)
    for e, c in enumerate(edges):
        if c == 0.0:
            continue  # degenerate link: S_jk = 0 with probability one
        links[:, e] = fam.sample_link(w, c, rng)
    return Latents(w=w, links=links)


def simulate(params: ModelParams, n: int, rng) -> tuple[Dataset, Latents]:
    """Draw n replicates from the three-level construction.

    Returns the dataset and the replicates' latents.  Vectorized across
    replicates; deterministic given the seed or Generator.
    """
    if n < 1:
        raise DomainError("replicate count must be >= 1")
    rng = _as_rng(rng)
    fam = get_family(params.family)
    p = params.p
    latents = draw_latents(fam, params.s0, params.c0, params.edges, n, rng)
    s_star = params.s0 + node_sums(latents.links, p)
    c_star = params.c0 + params.row_sums
    y = np.empty((n, p), dtype=float)
    for j in range(p):
        y[:, j] = fam.sample_w(s_star[:, j], c_star[j], rng)

    return Dataset(y=y), latents


def marginal_moments(params: ModelParams) -> tuple[float, float]:
    """Exact marginal mean and variance, identical for every node."""
    fam = get_family(params.family)
    nu2 = fam.coefficients.nu2
    mean = params.s0 / params.c0
    if params.c0 <= nu2:
        raise InfiniteVarianceError(
            f"marginal variance requires c0 > {nu2}, got c0 = {params.c0}"
        )
    variance = fam.variance(mean) / (params.c0 - nu2)
    return float(mean), float(variance)


def pairwise_correlation(params: ModelParams, j: int, k: int) -> float:
    """Exact correlation between nodes j and k (0-based indices)."""
    p = params.p
    if not (0 <= j < p and 0 <= k < p):
        raise IndexError(f"node index out of range for p = {p}")
    if j == k:
        raise IndexError("pairwise correlation requires two distinct nodes")
    return float(correlation_matrix(params)[j, k])


def correlation_matrix(params: ModelParams) -> np.ndarray:
    """Exact correlation matrix with unit diagonal."""
    rows = params.row_sums
    c0 = params.c0
    num = c0 * params.edge_intensity + np.outer(rows, rows)
    den = np.outer(c0 + rows, c0 + rows)
    corr = num / den
    np.fill_diagonal(corr, 1.0)
    return corr


def precision_check_3x3(params: ModelParams) -> tuple[float, np.ndarray]:
    """Closed-form precision matrix of a 3-node model, for verification only.

    Returns the determinant factor D and c0/D times the cofactor matrix of
    the correlation matrix.  Raises SingularModelError when D <= 1e-12.
    """
    if params.p != 3:
        raise DomainError("closed-form precision check is defined for p = 3")
    r12 = pairwise_correlation(params, 0, 1)
    r13 = pairwise_correlation(params, 0, 2)
    r23 = pairwise_correlation(params, 1, 2)
    d = 1.0 + 2.0 * r12 * r13 * r23 - r12 * r12 - r13 * r13 - r23 * r23
    if d <= 1e-12:
        raise SingularModelError(f"correlation structure is singular (D = {d!r})")
    cof = np.array(
        [
            [1.0 - r23 * r23, r23 * r13 - r12, r12 * r23 - r13],
            [r23 * r13 - r12, 1.0 - r13 * r13, r12 * r13 - r23],
            [r12 * r23 - r13, r12 * r13 - r23, 1.0 - r12 * r12],
        ]
    )
    return float(d), (params.c0 / d) * cof


def log_joint_likelihood_arrays(fam: Family, y, w, links, s0, c0, edges) -> float:
    """Extended log likelihood on raw arrays, links (n, P) and edges (P,);
    -inf on any support violation."""
    neg_inf = float("-inf")
    if not (np.all(fam.in_mean_space(w)) and np.all(fam.in_mean_space(y))):
        return neg_inf
    p = y.shape[1]
    total = 0.0
    for e, c in enumerate(edges):
        s = links[:, e]
        if c == 0.0:
            if np.any(s != 0.0):
                return neg_inf
            continue
        if not np.all(fam.in_link_support(s, c)):
            return neg_inf
        total += float(np.sum(fam.log_link_density(s, w, c)))
    s_star = s0 + node_sums(links, p)
    c_star = c0 + node_sums(edges, p)
    if fam.kind is FamilyKind.BETA and not np.all(s_star < c_star[None, :]):
        return neg_inf
    total += float(np.sum(fam.log_w_density(y, s_star, c_star[None, :])))
    total += float(np.sum(fam.log_w_density(w, s0, c0)))
    return total


def log_extended_likelihood(params: ModelParams, data: Dataset, latents: Latents) -> float:
    """Joint log density of observations and latents under the model.

    Returns -inf when any latent or observed value violates its support
    (including nonzero links on zero-intensity edges).
    """
    if data.p != params.p:
        raise DomainError("dataset and parameters disagree on the number of nodes")
    edges = params.edges
    w = _expect_shape("latent anchors w", latents.w, (data.n,))
    links = _expect_shape("latent links", latents.links, (data.n, edges.size))
    return log_joint_likelihood_arrays(get_family(params.family), data.y, w, links,
                                       params.s0, params.c0, edges)

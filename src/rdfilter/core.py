"""Shared domain types: grids on (0, pi), multi-component fields, reaction
systems (a u-independent one is flagged), ``ConfigError``.

One ``Field`` holds values on a ``Grid1D`` or a ``Grid2D``; the grid gives
its node shape.  Values are stored node-major, shape (nodes..., m), so the
pointwise reaction solve works on contiguous per-node blocks.

Grid node arrays are memoized per interval count (``uniform_nodes``): every
grid with N intervals returns the same read-only array from ``nodes``,
``nodes_x`` and ``nodes_y``, so a time step never rebuilds them; the
interior-node coordinates handed to the reaction are memoized per grid
(``interior_nodes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real
from typing import Callable

import numpy as np

# Sup-norm above which a run is declared blown up (stability experiments need
# a deterministic "unstable" verdict; NaN/Inf also counts).
BLOWUP_THRESHOLD = 1.0e8


class ConfigError(ValueError):
    """An input rejected by the name of its configuration key ("key: reason")."""


_BOOLS = (bool, np.bool_)


def require_positive(name: str, value: float, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is finite and positive;
    a bool (``np.bool_`` too) is not a number here, so True does not pass as 1."""
    # math, not a ufunc, which costs ~1 us per step; a bool is told apart by its type
    if type(value) in _BOOLS or not (math.isfinite(value) and value > 0.0):
        raise error(f"{name}: must be finite and positive, got {value!r}")


def read_only(array: np.ndarray) -> np.ndarray:
    """Mark a memoized array read-only, so no caller can corrupt the shared copy."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def uniform_nodes(n_intervals: int) -> np.ndarray:
    """Read-only nodes x_j = j*pi/N, j = 0..N, shared by every grid with N intervals."""
    return read_only(np.linspace(0.0, np.pi, n_intervals + 1))


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [0, pi] with N intervals, nodes x_j = j*pi/N, j = 0..N."""

    n_intervals: int

    def __post_init__(self):
        object.__setattr__(self, "n_intervals", require_whole("n_intervals", self.n_intervals))
        if self.n_intervals < 4:
            raise ValueError(
                f"n_intervals must be >= 4 (third-order shift needs 4 cosine modes), got {self.n_intervals}"
            )

    @property
    def h(self) -> float:
        return np.pi / self.n_intervals

    @property
    def nodes(self) -> np.ndarray:
        return uniform_nodes(self.n_intervals)

    @property
    def node_shape(self) -> tuple[int]:
        return (self.n_intervals + 1,)


def require_whole(name: str, value) -> int:
    """``value`` as an int; anything but a whole real number raises naming
    ``name``, and so do a bool and a number too large for a float."""
    try:
        if isinstance(value, Real) and not isinstance(value, bool) and float(value).is_integer():
            return int(value)
    except OverflowError:  # not printed: an int may have more digits than str() allows
        raise ValueError(f"{name}: must be a whole number, got one too large for a float") from None
    raise ValueError(f"{name}: must be a whole number, got {value!r}")


def make_grid_1d(n_intervals: int) -> Grid1D:
    return Grid1D(n_intervals)


@dataclass(frozen=True)
class Grid2D:
    """Tensor-product uniform grid on [0, pi]^2."""

    n_intervals_x: int
    n_intervals_y: int

    def __post_init__(self):
        for name in ("n_intervals_x", "n_intervals_y"):
            object.__setattr__(self, name, require_whole(name, getattr(self, name)))
        if self.n_intervals_x < 4 or self.n_intervals_y < 4:
            raise ValueError("each direction needs n_intervals >= 4")

    @property
    def hx(self) -> float:
        return np.pi / self.n_intervals_x

    @property
    def hy(self) -> float:
        return np.pi / self.n_intervals_y

    @property
    def nodes_x(self) -> np.ndarray:
        return uniform_nodes(self.n_intervals_x)

    @property
    def nodes_y(self) -> np.ndarray:
        return uniform_nodes(self.n_intervals_y)

    @property
    def node_shape(self) -> tuple[int, int]:
        return (self.n_intervals_x + 1, self.n_intervals_y + 1)


def make_grid_2d(n_intervals_x: int, n_intervals_y: int | None = None) -> Grid2D:
    return Grid2D(n_intervals_x, n_intervals_x if n_intervals_y is None else n_intervals_y)


@lru_cache(maxsize=8)
def interior_nodes(grid: Grid1D | Grid2D):
    """Read-only coordinates of the interior nodes, as a reaction receives
    them: the x array of a Grid1D, the (X, Y) mesh (indexing "ij") of a Grid2D.
    Memoized per grid; a 2D entry holds two (Nx-1, Ny-1) arrays, so few are kept."""
    if isinstance(grid, Grid1D):
        return grid.nodes[1:-1]
    X, Y = np.meshgrid(grid.nodes_x[1:-1], grid.nodes_y[1:-1], indexing="ij")
    return read_only(X), read_only(Y)


@dataclass(frozen=True)
class Field:
    """m-component values on a grid, node-major: shape (N+1, m) on a Grid1D,
    (Nx+1, Ny+1, m) on a Grid2D with values[i, j] = u(x_i, y_j).  The node
    shape comes from the grid; (nodes...) values are taken as m = 1."""

    grid: Grid1D | Grid2D
    values: np.ndarray

    def __post_init__(self):
        node_shape = self.grid.node_shape
        values = np.asarray(self.values, dtype=float)
        if values.shape == node_shape:
            values = values[..., np.newaxis]
        if values.shape[:-1] != node_shape:
            raise ValueError(
                f"values shape {values.shape} incompatible with node shape {node_shape}")
        object.__setattr__(self, "values", np.ascontiguousarray(values))

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)

    def blown_up(self) -> bool:
        # One reduction: NaN propagates through max, so NaN, +-Inf and values
        # above BLOWUP_THRESHOLD all fail the comparison; the threshold itself passes.
        return not np.abs(self.values).max() <= BLOWUP_THRESHOLD

    @staticmethod
    def zeros(grid: Grid1D | Grid2D, m: int = 1) -> "Field":
        return Field(grid, np.zeros(grid.node_shape + (m,)))


# Kept only because perfbench/workloads.py imports it and the benchmark changes
# in its own commits, never with the solver; tests/test_bench.py checks that
# every name the workloads import resolves.
Field2D = Field


@dataclass(frozen=True)
class ReactionSystem:
    """Pointwise nonlinear term f(x, t, u) with its m x m Jacobian df/du.

    Both callables are vectorized over nodes: ``u`` has shape (..., m), ``eval``
    returns (..., m) and ``jacobian`` returns (..., m, m).  ``x`` is the node
    coordinate array (1D grids) or an (X, Y) pair (2D grids); reactions that do
    not depend on position ignore it.  ``u_independent`` means f does not read
    u (df/du = 0): Newton evaluates f once per solve, and for m = 1 divides by c.
    """

    m: int
    eval: Callable = field(repr=False)
    jacobian: Callable = field(repr=False)
    u_independent: bool = False


def zero_reaction(m: int = 1) -> ReactionSystem:
    """f == 0 (pure diffusion)."""
    return source_reaction(lambda x, t: 0.0, m)


def source_reaction(source: Callable, m: int = 1) -> ReactionSystem:
    """u-independent source term f(x, t, u) = s(x, t)."""

    def _eval(x, t, u):
        s = np.asarray(source(x, t), dtype=float)
        out = np.empty_like(u, dtype=float)
        out[...] = s[..., np.newaxis] if s.ndim == u.ndim - 1 else s
        return out

    def _jac(x, t, u):
        return np.zeros(u.shape + (m,))

    return ReactionSystem(m=m, eval=_eval, jacobian=_jac, u_independent=True)


def laplacian_symbol(h: float, k: int) -> float:
    """Eigenvalue of the second-difference stencil of spacing h on sin(kx):
    2 h^-2 (cos(hk) - 1)."""
    return 2.0 / h**2 * (np.cos(h * k) - 1.0)


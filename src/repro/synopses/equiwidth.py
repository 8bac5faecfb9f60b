"""Dense equi-width grid histogram (numpy-backed).

A dense counterpart to :class:`~repro.synopses.sparse_hist.SparseCubicHistogram`:
the full grid is materialized as an ndarray, so unions are array adds and
equijoins are tensor contractions.  Dense storage pays off when the domain is
small and densely populated (the paper's 1–100 attribute domains); the
sparse histogram wins when buckets are mostly empty.  Used by the synopsis
ablation benchmark.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.synopses.base import (
    Dimension,
    Synopsis,
    SynopsisError,
    SynopsisFactory,
    require_same_dimensions,
)


class DenseGridHistogram(Synopsis):
    """Dense ndarray histogram with equal-width bins per dimension."""

    def __init__(self, dimensions: Sequence[Dimension], bin_width: int = 5) -> None:
        if bin_width < 1:
            raise SynopsisError(f"bin width must be >= 1, got {bin_width}")
        self.dimensions = tuple(dimensions)
        self.bin_width = bin_width
        shape = tuple(
            -(-d.n_values // bin_width) for d in self.dimensions
        )  # ceil division
        self._grid = np.zeros(shape, dtype=np.float64)

    # ------------------------------------------------------------------
    def _bin(self, dim_idx: int, value: float) -> int:
        d = self.dimensions[dim_idx]
        return int((value - d.lo) // self.bin_width)

    def _bin_value_range(self, dim_idx: int, b: int) -> tuple[int, int]:
        d = self.dimensions[dim_idx]
        lo = d.lo + b * self.bin_width
        return lo, min(d.hi, lo + self.bin_width - 1)

    # ------------------------------------------------------------------
    # Synopsis interface
    # ------------------------------------------------------------------
    def insert(self, values: Sequence[float], weight: float = 1.0) -> None:
        self._check_value(values)
        idx = tuple(self._bin(i, v) for i, v in enumerate(values))
        self._grid[idx] += weight

    def insert_many(self, rows) -> None:
        rows = list(rows)
        if not rows:
            return
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape[1] != len(self.dimensions):
            raise SynopsisError(
                f"row arity {arr.shape[1]} != {len(self.dimensions)} dimensions"
            )
        los = np.array([d.lo for d in self.dimensions])
        his = np.array([d.hi for d in self.dimensions])
        if ((arr < los) | (arr > his)).any():
            raise SynopsisError("value outside dimension domain")
        bins = ((arr - los) // self.bin_width).astype(np.intp)
        np.add.at(self._grid, tuple(bins[:, i] for i in range(bins.shape[1])), 1.0)

    def total(self) -> float:
        return float(self._grid.sum())

    def project(self, dims: Sequence[str]) -> "DenseGridHistogram":
        keep = [self.dim_index(d) for d in dims]
        out = DenseGridHistogram([self.dimensions[i] for i in keep], self.bin_width)
        drop = tuple(i for i in range(len(self.dimensions)) if i not in keep)
        reduced = self._grid.sum(axis=drop) if drop else self._grid.copy()
        # ``sum`` keeps remaining axes in original order; reorder to ``keep``.
        kept_sorted = [i for i in range(len(self.dimensions)) if i in keep]
        perm = [kept_sorted.index(i) for i in keep]
        out._grid = np.transpose(reduced, perm).copy()
        return out

    def union_all(self, other: Synopsis) -> "DenseGridHistogram":
        if not isinstance(other, DenseGridHistogram):
            raise SynopsisError(
                f"cannot union DenseGridHistogram with {type(other).__name__}"
            )
        require_same_dimensions(self, other)
        if other.bin_width != self.bin_width:
            raise SynopsisError("bin width mismatch")
        out = DenseGridHistogram(self.dimensions, self.bin_width)
        out._grid = self._grid + other._grid
        return out

    def equijoin(
        self, other: Synopsis, self_dim: str, other_dim: str
    ) -> "DenseGridHistogram":
        """Tensor-contraction equijoin: per shared join bin, mass a·b/n."""
        if not isinstance(other, DenseGridHistogram):
            raise SynopsisError(
                f"cannot join DenseGridHistogram with {type(other).__name__}"
            )
        if other.bin_width != self.bin_width:
            raise SynopsisError("bin width mismatch")
        si = self.dim_index(self_dim)
        oi = other.dim_index(other_dim)
        sd, od = self.dimensions[si], other.dimensions[oi]
        if sd.lo != od.lo:
            raise SynopsisError(
                "join dimensions misaligned: dense-grid joins require a shared origin"
            )
        out_dims = list(self.dimensions)
        other_keep = [i for i in range(len(other.dimensions)) if i != oi]
        taken = {d.name.lower() for d in out_dims}
        for i in other_keep:
            d = other.dimensions[i]
            name = d.name
            while name.lower() in taken:
                name += "_r"
            taken.add(name.lower())
            out_dims.append(d.renamed(name))
        out = DenseGridHistogram(out_dims, self.bin_width)

        nj = min(self._grid.shape[si], other._grid.shape[oi])
        # A: (..., j) with join axis last; B: (j, ...) with join axis first.
        a = np.moveaxis(self._grid, si, -1)[..., :nj]
        b = np.moveaxis(other._grid, oi, 0)[:nj, ...]
        # Per-value overlap of the shared join bin across both domains.
        n_vals = np.array(
            [
                max(
                    min(self._bin_value_range(si, j)[1], other._bin_value_range(oi, j)[1])
                    - max(
                        self._bin_value_range(si, j)[0],
                        other._bin_value_range(oi, j)[0],
                    )
                    + 1,
                    0,
                )
                for j in range(nj)
            ],
            dtype=np.float64,
        )
        safe = np.where(n_vals > 0, n_vals, 1.0)
        a_shape = a.shape[:-1]
        b_shape = b.shape[1:]
        joined = np.einsum(
            "aj,jb->ajb", a.reshape(-1, nj), b.reshape(nj, -1)
        ) / safe[None, :, None]
        joined *= (n_vals > 0)[None, :, None]
        joined = joined.reshape(a_shape + (nj,) + b_shape)
        # Axes now: self-minus-join..., join, other-minus-join...; move the
        # join axis back to position ``si``.
        joined = np.moveaxis(joined, len(a_shape), si)
        # Pad if the output grid expects more join bins than nj (grids match
        # because out_dims reuse self's join dimension).
        if joined.shape != out._grid.shape:
            slices = tuple(slice(0, s) for s in joined.shape)
            out._grid[slices] = joined
        else:
            out._grid = joined
        return out

    def select_range(self, dim: str, lo: int, hi: int) -> "DenseGridHistogram":
        di = self.dim_index(dim)
        out = DenseGridHistogram(self.dimensions, self.bin_width)
        n_bins = self._grid.shape[di]
        frac = np.zeros(n_bins)
        for b in range(n_bins):
            b_lo, b_hi = self._bin_value_range(di, b)
            overlap = min(hi, b_hi) - max(lo, b_lo) + 1
            if overlap > 0:
                frac[b] = overlap / (b_hi - b_lo + 1)
        shape = [1] * self._grid.ndim
        shape[di] = n_bins
        out._grid = self._grid * frac.reshape(shape)
        return out

    def group_counts(self, dim: str) -> dict[int, float]:
        di = self.dim_index(dim)
        axes = tuple(i for i in range(self._grid.ndim) if i != di)
        marginal = self._grid.sum(axis=axes) if axes else self._grid
        out: dict[int, float] = {}
        for b, mass in enumerate(marginal):
            if mass == 0:
                continue
            b_lo, b_hi = self._bin_value_range(di, b)
            share = float(mass) / (b_hi - b_lo + 1)
            for v in range(b_lo, b_hi + 1):
                out[v] = out.get(v, 0.0) + share
        return out

    def scale(self, factor: float) -> "DenseGridHistogram":
        out = DenseGridHistogram(self.dimensions, self.bin_width)
        out._grid = self._grid * factor
        return out

    def storage_size(self) -> int:
        return int(self._grid.size)

    def empty_like(self) -> "DenseGridHistogram":
        return DenseGridHistogram(self.dimensions, self.bin_width)


class DenseGridFactory(SynopsisFactory):
    """Factory for :class:`DenseGridHistogram`."""

    def __init__(self, bin_width: int = 5) -> None:
        self.bin_width = bin_width

    def create(self, dimensions: Sequence[Dimension]) -> DenseGridHistogram:
        return DenseGridHistogram(dimensions, self.bin_width)

    @property
    def name(self) -> str:
        return f"dense_grid(w={self.bin_width})"

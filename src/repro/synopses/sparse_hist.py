"""Sparse multidimensional histogram with cubic buckets.

This is the paper's production synopsis — *"For the experimental results
presented in this paper, we used a sparse multidimensional histogram with
cubic buckets"* (Section 5.2.2) — and its "fast synopsis" in the Figure 6
microbenchmark.  Buckets are axis-aligned hypercubes of a fixed side length
(``bucket_width`` domain values per dimension), stored sparsely as a mapping
from bucket coordinates to mass.  Because every instance over the same domain
uses the *same* grid, bucket boundaries always align, so union is a
dictionary merge and equijoin touches only coordinate-matched bucket pairs —
exactly the property whose absence makes unaligned MHISTs quadratic
(see :mod:`repro.synopses.mhist`).

Estimation assumption: mass is uniform across the integer values inside a
bucket (the standard histogram uniformity assumption).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from repro.synopses.base import (
    Dimension,
    Synopsis,
    SynopsisError,
    SynopsisFactory,
    require_same_dimensions,
)

Coords = tuple[int, ...]


class SparseCubicHistogram(Synopsis):
    """Sparse grid histogram with cubic (equal side length) buckets."""

    def __init__(
        self, dimensions: Sequence[Dimension], bucket_width: int = 5
    ) -> None:
        if bucket_width < 1:
            raise SynopsisError(f"bucket width must be >= 1, got {bucket_width}")
        self.dimensions = tuple(dimensions)
        self.bucket_width = bucket_width
        self._buckets: dict[Coords, float] = {}

    # ------------------------------------------------------------------
    # Grid geometry
    # ------------------------------------------------------------------
    def _coord(self, dim_idx: int, value: float) -> int:
        d = self.dimensions[dim_idx]
        return int((value - d.lo) // self.bucket_width)

    def _bucket_range(self, dim_idx: int, coord: int) -> tuple[int, int]:
        """Inclusive integer value range covered by a bucket along one dim."""
        d = self.dimensions[dim_idx]
        lo = d.lo + coord * self.bucket_width
        hi = min(d.hi, lo + self.bucket_width - 1)
        return lo, hi

    # ------------------------------------------------------------------
    # Synopsis interface
    # ------------------------------------------------------------------
    def insert(self, values: Sequence[float], weight: float = 1.0) -> None:
        # One fused pass validates and grids each value: insert runs once
        # per kept *and* per dropped tuple, so the generic _check_value +
        # per-dim _coord call chain is too slow here.
        dims = self.dimensions
        if len(values) != len(dims):
            raise SynopsisError(
                f"tuple arity {len(values)} != {len(dims)} dimensions"
            )
        width = self.bucket_width
        coords = []
        for v, d in zip(values, dims):
            if not d.lo <= v <= d.hi:
                raise SynopsisError(
                    f"value {v!r} outside domain [{d.lo}, {d.hi}] of {d.name}"
                )
            coords.append(int((v - d.lo) // width))
        key = tuple(coords)
        self._buckets[key] = self._buckets.get(key, 0.0) + weight

    def insert_bulk(self, rows, positions=None, weight: float = 1.0) -> None:
        # Batch variant of insert with the per-row overhead hoisted out of
        # the loop (no method dispatch, no rebuilt dimension specs).  The
        # triage queue lands here once per (batch, window) instead of once
        # per shed tuple, which is most of the shed-path cost under the
        # paper's 90%-drop overload shapes.
        dims = self.dimensions
        if positions is None:
            ndims = len(dims)
            spec = [(p, d.lo, d.hi, d.name) for p, d in enumerate(dims)]
        else:
            ndims = None
            if len(positions) != len(dims):
                raise SynopsisError(
                    f"tuple arity {len(positions)} != {len(dims)} dimensions"
                )
            spec = [(p, d.lo, d.hi, d.name) for p, d in zip(positions, dims)]
        width = self.bucket_width
        buckets = self._buckets
        get = buckets.get
        if len(spec) == 1:
            p, lo, hi, name = spec[0]
            for row in rows:
                if ndims is not None and len(row) != ndims:
                    raise SynopsisError(
                        f"tuple arity {len(row)} != {ndims} dimensions"
                    )
                v = row[p]
                if not lo <= v <= hi:
                    raise SynopsisError(
                        f"value {v!r} outside domain [{lo}, {hi}] of {name}"
                    )
                key = (int((v - lo) // width),)
                buckets[key] = get(key, 0.0) + weight
            return
        for row in rows:
            if ndims is not None and len(row) != ndims:
                raise SynopsisError(
                    f"tuple arity {len(row)} != {ndims} dimensions"
                )
            coords = []
            for p, lo, hi, name in spec:
                v = row[p]
                if not lo <= v <= hi:
                    raise SynopsisError(
                        f"value {v!r} outside domain [{lo}, {hi}] of {name}"
                    )
                coords.append(int((v - lo) // width))
            key = tuple(coords)
            buckets[key] = get(key, 0.0) + weight

    def total(self) -> float:
        return sum(self._buckets.values())

    def project(self, dims: Sequence[str]) -> "SparseCubicHistogram":
        keep = [self.dim_index(d) for d in dims]
        out = SparseCubicHistogram(
            [self.dimensions[i] for i in keep], self.bucket_width
        )
        acc: dict[Coords, float] = defaultdict(float)
        for coords, mass in self._buckets.items():
            acc[tuple(coords[i] for i in keep)] += mass
        out._buckets = dict(acc)
        return out

    def union_all(self, other: Synopsis) -> "SparseCubicHistogram":
        if not isinstance(other, SparseCubicHistogram):
            raise SynopsisError(
                f"cannot union SparseCubicHistogram with {type(other).__name__}"
            )
        require_same_dimensions(self, other)
        if other.bucket_width != self.bucket_width:
            raise SynopsisError(
                f"bucket width mismatch: {self.bucket_width} vs {other.bucket_width}"
            )
        out = SparseCubicHistogram(self.dimensions, self.bucket_width)
        out._buckets = dict(self._buckets)
        for coords, mass in other._buckets.items():
            out._buckets[coords] = out._buckets.get(coords, 0.0) + mass
        return out

    def equijoin(
        self, other: Synopsis, self_dim: str, other_dim: str
    ) -> "SparseCubicHistogram":
        """Grid-aligned histogram join.

        Buckets pair up only when their join-dimension coordinates match;
        each pair contributes ``mass_a * mass_b / n`` results (``n`` = integer
        values inside the shared join bucket), by the uniformity assumption:
        the expected number of value collisions between two uniform bags of
        sizes ``mass_a`` and ``mass_b`` over ``n`` values.
        """
        if not isinstance(other, SparseCubicHistogram):
            raise SynopsisError(
                f"cannot join SparseCubicHistogram with {type(other).__name__}"
            )
        if other.bucket_width != self.bucket_width:
            raise SynopsisError(
                f"bucket width mismatch: {self.bucket_width} vs {other.bucket_width}"
            )
        si = self.dim_index(self_dim)
        oi = other.dim_index(other_dim)
        sd, od = self.dimensions[si], other.dimensions[oi]
        if sd.lo != od.lo:
            raise SynopsisError(
                f"join dimensions misaligned: {sd.name} starts at {sd.lo}, "
                f"{od.name} starts at {od.lo}; cubic-bucket joins require a "
                "shared grid origin"
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
        out = SparseCubicHistogram(out_dims, self.bucket_width)

        # Index other's buckets by join coordinate, with the kept-dimension
        # tail projected once per bucket: the pair loop below runs once per
        # (self bucket, other bucket) match and must not rebuild the same
        # coordinate tuple for every self-side partner.
        by_join: dict[int, list[tuple[Coords, float]]] = {}
        for ocoords, omass in other._buckets.items():
            tail = tuple(ocoords[i] for i in other_keep)
            by_join.setdefault(ocoords[oi], []).append((tail, omass))

        # The shared value count n depends only on the join coordinate;
        # compute it once per coordinate, not once per self bucket.
        n_shared: dict[int, int] = {}
        acc: dict[Coords, float] = {}
        acc_get = acc.get
        for coords, mass in self._buckets.items():
            jc = coords[si]
            matches = by_join.get(jc)
            if not matches:
                continue
            n = n_shared.get(jc)
            if n is None:
                # Values the join bucket covers in *both* domains.
                s_lo, s_hi = self._bucket_range(si, jc)
                o_lo, o_hi = other._bucket_range(oi, jc)
                n = n_shared[jc] = min(s_hi, o_hi) - max(s_lo, o_lo) + 1
            if n <= 0:
                continue
            for tail, omass in matches:
                new_coords = coords + tail
                acc[new_coords] = acc_get(new_coords, 0.0) + mass * omass / n
        out._buckets = acc
        return out

    def equijoin_multi(
        self, other: Synopsis, pairs
    ) -> "SparseCubicHistogram":
        """Composite-key join: buckets pair when *every* join coordinate
        matches; the per-pair mass divides by the product of shared value
        counts (independence of the uniformity assumptions per dimension).
        """
        if len(pairs) == 1:
            return self.equijoin(other, pairs[0][0], pairs[0][1])
        if not isinstance(other, SparseCubicHistogram):
            raise SynopsisError(
                f"cannot join SparseCubicHistogram with {type(other).__name__}"
            )
        if other.bucket_width != self.bucket_width:
            raise SynopsisError(
                f"bucket width mismatch: {self.bucket_width} vs {other.bucket_width}"
            )
        sis = [self.dim_index(s) for s, _ in pairs]
        ois = [other.dim_index(o) for _, o in pairs]
        for si, oi in zip(sis, ois):
            if self.dimensions[si].lo != other.dimensions[oi].lo:
                raise SynopsisError(
                    "join dimensions misaligned: cubic-bucket joins require "
                    "a shared grid origin"
                )
        out_dims = list(self.dimensions)
        other_keep = [i for i in range(len(other.dimensions)) if i not in ois]
        taken = {d.name.lower() for d in out_dims}
        for i in other_keep:
            d = other.dimensions[i]
            name = d.name
            while name.lower() in taken:
                name += "_r"
            taken.add(name.lower())
            out_dims.append(d.renamed(name))
        out = SparseCubicHistogram(out_dims, self.bucket_width)

        # Same two pair-loop hoists as equijoin: tails projected once per
        # other bucket, the denominator cached per composite join key.
        by_join: dict[tuple, list[tuple[Coords, float]]] = {}
        for ocoords, omass in other._buckets.items():
            tail = tuple(ocoords[i] for i in other_keep)
            by_join.setdefault(
                tuple(ocoords[i] for i in ois), []
            ).append((tail, omass))

        denoms: dict[tuple, int] = {}
        acc: dict[Coords, float] = {}
        acc_get = acc.get
        for coords, mass in self._buckets.items():
            key = tuple(coords[i] for i in sis)
            matches = by_join.get(key)
            if not matches:
                continue
            denom = denoms.get(key)
            if denom is None:
                denom = 1
                for si, oi, jc in zip(sis, ois, key):
                    s_lo, s_hi = self._bucket_range(si, jc)
                    o_lo, o_hi = other._bucket_range(oi, jc)
                    n = min(s_hi, o_hi) - max(s_lo, o_lo) + 1
                    if n <= 0:
                        denom = 0
                        break
                    denom *= n
                denoms[key] = denom
            if denom <= 0:
                continue
            for tail, omass in matches:
                new_coords = coords + tail
                acc[new_coords] = acc_get(new_coords, 0.0) + mass * omass / denom
        out._buckets = acc
        return out

    def select_range(self, dim: str, lo: int, hi: int) -> "SparseCubicHistogram":
        """Range selection; boundary buckets are kept fractionally."""
        di = self.dim_index(dim)
        out = SparseCubicHistogram(self.dimensions, self.bucket_width)
        for coords, mass in self._buckets.items():
            b_lo, b_hi = self._bucket_range(di, coords[di])
            overlap = min(hi, b_hi) - max(lo, b_lo) + 1
            if overlap <= 0:
                continue
            frac = overlap / (b_hi - b_lo + 1)
            out._buckets[coords] = out._buckets.get(coords, 0.0) + mass * frac
        return out

    def group_counts(self, dim: str) -> dict[int, float]:
        di = self.dim_index(dim)
        marginal: dict[int, float] = defaultdict(float)
        for coords, mass in self._buckets.items():
            marginal[coords[di]] += mass
        out: dict[int, float] = {}
        for coord, mass in marginal.items():
            b_lo, b_hi = self._bucket_range(di, coord)
            n = b_hi - b_lo + 1
            share = mass / n
            for v in range(b_lo, b_hi + 1):
                out[v] = out.get(v, 0.0) + share
        return out

    def scale(self, factor: float) -> "SparseCubicHistogram":
        out = SparseCubicHistogram(self.dimensions, self.bucket_width)
        out._buckets = {c: m * factor for c, m in self._buckets.items()}
        return out

    def storage_size(self) -> int:
        return len(self._buckets)

    def empty_like(self) -> "SparseCubicHistogram":
        return SparseCubicHistogram(self.dimensions, self.bucket_width)

    # ------------------------------------------------------------------
    def bucket_items(self) -> list[tuple[tuple[tuple[int, int], ...], float]]:
        """(per-dim inclusive value ranges, mass) for every bucket.

        Used by the visualization layer to draw lost-result rectangles
        (Figure 3) and by tests.
        """
        out = []
        for coords, mass in self._buckets.items():
            box = tuple(self._bucket_range(i, c) for i, c in enumerate(coords))
            out.append((box, mass))
        return out


class SparseHistogramFactory(SynopsisFactory):
    """Factory for :class:`SparseCubicHistogram` with a fixed bucket width."""

    def __init__(self, bucket_width: int = 5) -> None:
        if bucket_width < 1:
            raise SynopsisError(f"bucket width must be >= 1, got {bucket_width}")
        self.bucket_width = bucket_width

    def create(self, dimensions: Sequence[Dimension]) -> SparseCubicHistogram:
        return SparseCubicHistogram(dimensions, self.bucket_width)

    @property
    def name(self) -> str:
        return f"sparse_hist(w={self.bucket_width})"

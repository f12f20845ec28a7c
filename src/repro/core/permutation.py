"""Permutation and sub-permutation matrices in implicit (index) representation.

The paper (Section 2.1) represents an ``n x n`` (sub-)permutation matrix ``P``
as an array of size ``n`` where index ``i`` holds the column of the nonzero
element in row ``i + 1/2`` (rows and columns of the *matrix* live on
half-integers ``<0 : n>``), or a sentinel when the row is empty.

This module uses plain 0-based integer indices internally: a point in row
half-integer ``r + 1/2`` and column half-integer ``c + 1/2`` is stored as the
pair of integers ``(r, c)`` with ``0 <= r, c < n``.  The distribution matrix
(the associated unit-Monge matrix) follows the paper's convention

    ``P_sigma(i, j) = #{ (r, c) nonzero : r >= i, c < j }``

for integer corners ``0 <= i, j <= n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "EMPTY",
    "Permutation",
    "SubPermutation",
    "identity_permutation",
    "random_permutation",
    "random_subpermutation",
]

#: Sentinel used in a :class:`SubPermutation` row map for "this row is empty".
EMPTY = -1

IntArray = np.ndarray


def _as_int_array(values: Union[Sequence[int], np.ndarray]) -> IntArray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D index array, got shape {arr.shape}")
    return arr


class SubPermutation:
    """An ``n_rows x n_cols`` 0/1 matrix with at most one nonzero per row/column.

    Parameters
    ----------
    row_to_col:
        Array of length ``n_rows``; entry ``r`` is the column of the nonzero in
        row ``r`` or :data:`EMPTY` when the row has no nonzero.
    n_cols:
        Number of columns.  Defaults to ``len(row_to_col)`` (square matrix).
    validate:
        When true (default), verify the sub-permutation property.
    """

    __slots__ = ("_row_to_col", "_n_cols")

    def __init__(
        self,
        row_to_col: Union[Sequence[int], np.ndarray],
        n_cols: Optional[int] = None,
        *,
        validate: bool = True,
    ) -> None:
        arr = _as_int_array(row_to_col)
        self._row_to_col = arr
        self._n_cols = int(n_cols) if n_cols is not None else len(arr)
        if validate:
            self.validate()

    # ------------------------------------------------------------------ basic
    @property
    def n_rows(self) -> int:
        """Number of rows of the matrix."""
        return len(self._row_to_col)

    @property
    def n_cols(self) -> int:
        """Number of columns of the matrix."""
        return self._n_cols

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self._n_cols)

    @property
    def row_to_col(self) -> IntArray:
        """The underlying row-to-column index array (read-only view)."""
        view = self._row_to_col.view()
        view.flags.writeable = False
        return view

    @property
    def size(self) -> int:
        """``n`` for a square matrix; raises for non-square matrices."""
        if self.n_rows != self._n_cols:
            raise ValueError("size is only defined for square matrices")
        return self.n_rows

    def __len__(self) -> int:
        return self.n_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubPermutation):
            return NotImplemented
        return (
            self._n_cols == other._n_cols
            and self.n_rows == other.n_rows
            and bool(np.array_equal(self._row_to_col, other._row_to_col))
        )

    def __hash__(self) -> int:
        return hash((self._n_cols, self._row_to_col.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(shape={self.shape}, "
            f"nonzeros={self.num_nonzeros})"
        )

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise :class:`ValueError` if this is not a valid sub-permutation."""
        arr = self._row_to_col
        filled = arr[arr != EMPTY]
        if filled.size and (filled.min() < 0 or filled.max() >= self._n_cols):
            raise ValueError("column index out of range")
        if np.any(arr < EMPTY):
            raise ValueError("negative column index (other than EMPTY sentinel)")
        if filled.size != np.unique(filled).size:
            raise ValueError("duplicate column index: not a sub-permutation")

    @property
    def nbytes(self) -> int:
        """Resident bytes of the implicit representation.

        The honest sizing hook used by the service cache and the streaming
        aggregator — byte budgets must reflect what is actually held.
        """
        return int(self._row_to_col.nbytes)

    # ------------------------------------------------------------------ points
    @property
    def num_nonzeros(self) -> int:
        """Number of nonzero entries."""
        return int(np.count_nonzero(self._row_to_col != EMPTY))

    def nonzero_rows(self) -> IntArray:
        """Rows that contain a nonzero entry, in increasing order."""
        return np.flatnonzero(self._row_to_col != EMPTY).astype(np.int64)

    def nonzero_cols(self) -> IntArray:
        """Columns that contain a nonzero entry, in increasing order."""
        cols = self._row_to_col[self._row_to_col != EMPTY]
        return np.sort(cols)

    def points(self) -> Tuple[IntArray, IntArray]:
        """Return ``(rows, cols)`` arrays of the nonzero entries (row-sorted)."""
        rows = self.nonzero_rows()
        return rows, self._row_to_col[rows]

    def iter_points(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(row, col)`` nonzero positions."""
        rows, cols = self.points()
        return zip(rows.tolist(), cols.tolist())

    # ------------------------------------------------------------ conversions
    def to_dense(self) -> np.ndarray:
        """Return the explicit 0/1 matrix (for tests and small inputs only)."""
        mat = np.zeros(self.shape, dtype=np.int64)
        rows, cols = self.points()
        mat[rows, cols] = 1
        return mat

    def col_to_row(self) -> IntArray:
        """Inverse map: for each column, the row of its nonzero or ``EMPTY``."""
        inv = np.full(self._n_cols, EMPTY, dtype=np.int64)
        rows, cols = self.points()
        inv[cols] = rows
        return inv

    def transpose(self) -> "SubPermutation":
        """The transposed sub-permutation (rows and columns swapped)."""
        return SubPermutation(self.col_to_row(), n_cols=self.n_rows, validate=False)

    # --------------------------------------------------------- Monge matrices
    def distribution_matrix(self) -> np.ndarray:
        """The (sub)unit-Monge distribution matrix ``P_sigma``.

        ``P_sigma(i, j) = #{nonzeros (r, c) : r >= i, c < j}`` for integer
        corners ``0 <= i <= n_rows`` and ``0 <= j <= n_cols``.  Quadratic
        memory; intended for testing and small instances.
        """
        rows, cols = self.points()
        cell = np.zeros((self.n_rows + 1, self._n_cols + 1), dtype=np.int64)
        if len(rows):
            np.add.at(cell, (rows, cols + 1), 1)
        # dist(i, j) = #points with row >= i and col < j: suffix-sum over rows
        # of the prefix-sum over columns of the cell indicator.
        prefix_cols = np.cumsum(cell, axis=1)
        dist = np.cumsum(prefix_cols[::-1, :], axis=0)[::-1, :]
        return dist

    def distribution_at(self, i: int, j: int) -> int:
        """Evaluate ``P_sigma(i, j)`` at a single corner in O(nnz) time."""
        rows, cols = self.points()
        return int(np.count_nonzero((rows >= i) & (cols < j)))

    # ------------------------------------------------------------ persistence
    def npz_payload(self, prefix: str = "") -> dict:
        """The arrays that fully describe this matrix, keyed for ``np.savez``.

        ``prefix`` namespaces the keys so callers can embed the payload inside
        a larger ``.npz`` archive (the service index cache does this).
        """
        return {
            f"{prefix}row_to_col": self._row_to_col,
            f"{prefix}n_cols": np.asarray(self._n_cols, dtype=np.int64),
        }

    @classmethod
    def from_npz_payload(cls, payload, prefix: str = "") -> "SubPermutation":
        """Rebuild a matrix from :meth:`npz_payload` arrays (inverse op)."""
        try:
            row_to_col = payload[f"{prefix}row_to_col"]
            n_cols = payload[f"{prefix}n_cols"]
        except KeyError as exc:
            raise ValueError(f"npz payload is missing sub-permutation key {exc}") from None
        return cls(np.asarray(row_to_col, dtype=np.int64), n_cols=int(n_cols), validate=True)

    def save_npz(self, path: str) -> None:
        """Persist the matrix to a compressed ``.npz`` file."""
        np.savez_compressed(path, **self.npz_payload())

    @classmethod
    def load_npz(cls, path: str) -> "SubPermutation":
        """Load a matrix written by :meth:`save_npz` (validates on load)."""
        with np.load(path) as payload:
            return cls.from_npz_payload(payload)

    # ----------------------------------------------------------- construction
    @classmethod
    def from_points(
        cls,
        rows: Union[Sequence[int], np.ndarray],
        cols: Union[Sequence[int], np.ndarray],
        n_rows: int,
        n_cols: Optional[int] = None,
        *,
        validate: bool = True,
    ) -> "SubPermutation":
        """Build a sub-permutation from parallel arrays of point coordinates."""
        rows_arr = _as_int_array(rows)
        cols_arr = _as_int_array(cols)
        if rows_arr.shape != cols_arr.shape:
            raise ValueError("rows and cols must have the same length")
        if n_cols is None:
            n_cols = n_rows
        mapping = np.full(n_rows, EMPTY, dtype=np.int64)
        if validate and rows_arr.size:
            if rows_arr.min() < 0 or rows_arr.max() >= n_rows:
                raise ValueError("row index out of range")
            if np.unique(rows_arr).size != rows_arr.size:
                raise ValueError("duplicate row index")
        mapping[rows_arr] = cols_arr
        return cls(mapping, n_cols=n_cols, validate=validate)

    @classmethod
    def empty(cls, n_rows: int, n_cols: Optional[int] = None) -> "SubPermutation":
        """The all-zero sub-permutation of the given shape."""
        return cls(
            np.full(n_rows, EMPTY, dtype=np.int64),
            n_cols=n_cols if n_cols is not None else n_rows,
            validate=False,
        )

    def is_full_permutation(self) -> bool:
        """True when every row and every column has exactly one nonzero."""
        return (
            self.n_rows == self._n_cols
            and self.num_nonzeros == self.n_rows
        )

    def as_permutation(self) -> "Permutation":
        """Reinterpret as a full :class:`Permutation` (raises if not full)."""
        if not self.is_full_permutation():
            raise ValueError("not a full permutation matrix")
        return Permutation(self._row_to_col, validate=False)


class Permutation(SubPermutation):
    """An ``n x n`` permutation matrix (exactly one nonzero per row/column)."""

    def __init__(
        self,
        row_to_col: Union[Sequence[int], np.ndarray],
        *,
        validate: bool = True,
    ) -> None:
        arr = _as_int_array(row_to_col)
        super().__init__(arr, n_cols=len(arr), validate=False)
        if validate:
            self.validate()

    def validate(self) -> None:
        arr = self._row_to_col
        n = len(arr)
        if n and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("column index out of range for a permutation")
        if np.unique(arr).size != n:
            raise ValueError("duplicate column index: not a permutation")

    def inverse(self) -> "Permutation":
        """The inverse permutation (equals the transpose of the matrix)."""
        inv = np.empty_like(self._row_to_col)
        inv[self._row_to_col] = np.arange(len(self._row_to_col), dtype=np.int64)
        return Permutation(inv, validate=False)

    def transpose(self) -> "Permutation":
        return self.inverse()

    def compose(self, other: "Permutation") -> "Permutation":
        """Ordinary permutation composition ``self o other`` (not ⊡)."""
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return Permutation(self._row_to_col[other._row_to_col], validate=False)


def identity_permutation(n: int) -> Permutation:
    """The identity permutation matrix of size ``n``."""
    return Permutation(np.arange(n, dtype=np.int64), validate=False)


def random_permutation(n: int, rng: Optional[np.random.Generator] = None) -> Permutation:
    """A uniformly random permutation matrix of size ``n``."""
    rng = rng if rng is not None else np.random.default_rng()
    return Permutation(rng.permutation(n).astype(np.int64), validate=False)


def random_subpermutation(
    n_rows: int,
    n_cols: int,
    num_points: int,
    rng: Optional[np.random.Generator] = None,
) -> SubPermutation:
    """A random sub-permutation with exactly ``num_points`` nonzeros."""
    rng = rng if rng is not None else np.random.default_rng()
    if num_points > min(n_rows, n_cols):
        raise ValueError("num_points exceeds min(n_rows, n_cols)")
    rows = np.sort(rng.choice(n_rows, size=num_points, replace=False))
    cols = rng.choice(n_cols, size=num_points, replace=False)
    return SubPermutation.from_points(rows, cols, n_rows, n_cols)

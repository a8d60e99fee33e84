"""Kernel matrices, principal-submatrix log-determinants, eigensystems.

A kernel here is a real symmetric positive definite matrix over candidate
sites.  The optimization objective everywhere in this package is the
natural log of the determinant of a principal submatrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EigenSolverError, InputFormatError, SingularSubmatrixError

# Ingest tolerates round-trip noise but rejects genuinely asymmetric input.
_ASYMMETRY_RTOL = 1e-6
# Cholesky pivots below this fraction of the largest diagonal entry are
# treated as a singular submatrix rather than silently returning -inf.
_PIVOT_RTOL = 1e-12
# Eigenvalues this slightly negative are roundoff and get clamped to zero.
_EIG_CLAMP_RTOL = 1e-10


class KernelMatrix:
    """Immutable symmetric matrix with optional site labels.

    Input is symmetrized as (A + A^T)/2 on construction; asymmetry beyond
    max|A - A^T| <= 1e-6 * max|A| is rejected as malformed.
    """

    def __init__(self, entries, labels=None):
        a = np.array(entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputFormatError(f"non-square matrix with shape {a.shape}")
        if a.shape[0] == 0:
            raise InputFormatError("empty matrix")
        if not np.all(np.isfinite(a)):
            raise InputFormatError("matrix contains non-finite entries")
        scale = np.abs(a).max()
        if scale > 0 and np.abs(a - a.T).max() > _ASYMMETRY_RTOL * scale:
            raise InputFormatError("matrix is not symmetric")
        self._entries = (a + a.T) / 2.0
        self._entries.setflags(write=False)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != a.shape[0]:
                raise InputFormatError(
                    f"expected {a.shape[0]} labels, got {len(labels)}"
                )
        self._labels = labels

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def labels(self):
        return self._labels

    def __repr__(self):
        return f"KernelMatrix(dim={self.dim})"


class EigenSystem:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    def __init__(self, eigenvalues, eigenvectors):
        w = np.asarray(eigenvalues, dtype=np.float64)
        v = np.asarray(eigenvectors, dtype=np.float64)
        if w.ndim != 1 or v.shape != (w.size, w.size):
            raise ValueError("inconsistent eigensystem shapes")
        if np.any(np.diff(w) > 0):
            raise ValueError("eigenvalues must be in descending order")
        self.eigenvalues = w
        self.eigenvectors = v
        w.setflags(write=False)
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class DesignSubset:
    """A k-element index set together with its log-determinant objective."""

    indices: tuple
    log_det: float

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("subset must be nonempty")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("subset indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @property
    def k(self) -> int:
        return len(self.indices)


def _validate_subset(n: int, indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp).ravel()
    if idx.size == 0:
        raise ValueError("index set must be nonempty")
    if np.unique(idx).size != idx.size:
        raise ValueError("index set must have distinct elements")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"indices out of bounds for dimension {n}")
    return idx


def _logdet_psd(a: np.ndarray) -> float:
    """Log-determinant of a PD matrix via Cholesky; raises on failure."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularSubmatrixError("singular submatrix") from None
    d = np.diagonal(chol)
    if (d * d).min() < _PIVOT_RTOL * np.diagonal(a).max():
        raise SingularSubmatrixError("singular submatrix")
    return 2.0 * float(np.log(d).sum())


def _logdet_psd_stack(a: np.ndarray) -> np.ndarray:
    """_logdet_psd of each matrix in a (B, k, k) stack; raises if any fails."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularSubmatrixError("singular submatrix") from None
    d = np.diagonal(chol, axis1=1, axis2=2)
    top = np.diagonal(a, axis1=1, axis2=2).max(axis=1)
    if ((d * d).min(axis=1) < _PIVOT_RTOL * top).any():
        raise SingularSubmatrixError("singular submatrix")
    return 2.0 * np.log(d).sum(axis=1)


def log_det_submatrix(K: KernelMatrix, indices) -> float:
    """Natural log of det(K[S]) for the index set S.

    Raises SingularSubmatrixError when the principal submatrix is not
    positive definite (factorization failure or vanishing pivot).
    """
    idx = _validate_subset(K.dim, indices)
    return _logdet_psd(K.entries[np.ix_(idx, idx)])


def design_subset(K: KernelMatrix, indices) -> DesignSubset:
    """Build a DesignSubset with its objective value evaluated on K."""
    idx = np.sort(_validate_subset(K.dim, indices))
    return DesignSubset(tuple(int(i) for i in idx), _logdet_psd(K.entries[np.ix_(idx, idx)]))


def eigendecompose(K: KernelMatrix) -> EigenSystem:
    """Full symmetric eigendecomposition with eigenvalues descending.

    Eigenvalues in (-1e-10 * max|lambda|, 0) are roundoff from a PSD
    kernel and are clamped to zero; larger negative values are kept so the
    reconstruction invariant holds for indefinite symmetric input too.
    """
    try:
        w, v = np.linalg.eigh(K.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigensolver failure: {exc}") from None
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    if w.size:
        clamp = _EIG_CLAMP_RTOL * np.abs(w).max()
        w[(w < 0) & (w > -clamp)] = 0.0
    return EigenSystem(w, v)


def synth_kernel(n: int, lengthscale: float, nugget: float = 0.0, seed: int = 0) -> KernelMatrix:
    """Exponential-decay kernel on n random sites in the unit square.

    Sites are drawn uniformly from a generator seeded with `seed`;
    entries are exp(-||x_i - x_j|| / lengthscale) plus `nugget` on the
    diagonal.  Positive definite for nugget > 0.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if lengthscale <= 0:
        raise ValueError(f"lengthscale must be positive, got {lengthscale}")
    if nugget < 0:
        raise ValueError(f"nugget must be nonnegative, got {nugget}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    delta = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((delta * delta).sum(axis=2))
    entries = np.exp(-dist / lengthscale) + nugget * np.eye(n)
    return KernelMatrix(entries)


def load_kernel(path) -> KernelMatrix:
    """Load a kernel from a plain-text matrix file.

    One row per line, comma- or whitespace-separated numbers: a line
    containing a comma splits on commas.  An optional first line
    "# labels: a,b,c" names the sites.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    lines = [ln for ln in lines if ln]
    labels = None
    if lines and lines[0].startswith("#"):
        header = lines.pop(0)[1:].strip()
        if header.lower().startswith("labels:"):
            labels = [s.strip() for s in header[len("labels:"):].split(",")]
    if not lines:
        raise InputFormatError(f"empty matrix file: {path}")
    rows = []
    for ln in lines:
        if "," in ln:
            cells = [c for c in (s.strip() for s in ln.split(",")) if c]
        else:
            cells = ln.split()
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise InputFormatError(f"non-numeric cell in row {len(rows) + 1}") from None
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise InputFormatError("non-square matrix")
    return KernelMatrix(rows, labels=labels)


def save_kernel(K: KernelMatrix, path) -> None:
    """Write a kernel in the plain-text format read by load_kernel."""
    with open(path, "w", encoding="utf-8") as fh:
        if K.labels is not None:
            fh.write("# labels: " + ",".join(K.labels) + "\n")
        for row in K.entries:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

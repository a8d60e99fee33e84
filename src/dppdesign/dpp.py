"""Exact fixed-size determinantal point process sampling.

`sample_k_batch` draws many subsets in lock step, one per row of a
uniforms array, in two phases.  Phase one picks which k eigenvectors span
each row's projection process: a row walks the eigenvalues from the last
to the first against a table of elementary symmetric polynomials, keeping
eigenvalue m with probability lambda_m * e_{kk-1}(first m-1) / e_kk(first m),
where kk is the number of eigenvectors it has still to pick.  All rows
advance together one pick at a time.  Phase two is the sequential
projection sampler in Gram-Schmidt form (Kulesza & Taskar 2012, Alg. 1;
Tremblay, Barthelme & Amblard 2018): each of k rounds picks one item per
row by its running marginal, orthonormalises the item's eigenvector
coordinates against those of the items already picked, and subtracts the
new direction's share from every marginal.  No operation mixes rows, so a
draw depends only on its own uniforms, never on the chunk or worker it is
drawn in; `sample_k_dpp` is the one-row call.

Subset probabilities are proportional to the determinant of the kernel's
principal submatrix, normalized over all subsets of the same cardinality;
`exact_k_dpp_pmf` evaluates that law by full enumeration at desk scale.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialBudgetError, NumericError, RankDeficientError
from .kernels import EigenSystem, KernelMatrix

_PMF_BUDGET = 10**6
# Rescale eigenvalues when the top-degree polynomial could leave double range.
_OVERFLOW_LIMIT = 1e300


class ElementarySymmetricTable:
    """e[m][j] = j-th elementary symmetric polynomial of the first m eigenvalues.

    When overflow forces rescaling by `scale`, table[m][j] holds the
    polynomial of the rescaled eigenvalues and value(m, j) restores the
    true magnitude.  The acceptance ratios used in sampling are invariant
    under that rescaling; ratio[m-1, kk-1] holds
    lam_m * e[m-1, kk-1] / e[m, kk] for the rescaled eigenvalues.
    """

    def __init__(self, table: np.ndarray, scale: float, ratio: np.ndarray):
        self.table = table
        self.scale = scale
        self.ratio = ratio
        table.setflags(write=False)
        ratio.setflags(write=False)

    @property
    def n(self) -> int:
        return self.table.shape[0] - 1

    @property
    def k(self) -> int:
        return self.table.shape[1] - 1

    def value(self, m: int, j: int) -> float:
        return float(self.table[m, j]) * self.scale**j


@dataclass(frozen=True)
class DppSample:
    """One sampled subset, as sorted item indices."""

    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


def elementary_table(eigenvalues, k: int) -> ElementarySymmetricTable:
    """Tabulate elementary symmetric polynomials up to degree k."""
    lam = np.asarray(eigenvalues, dtype=np.float64).ravel()
    n = lam.size
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if n and lam.min() < 0:
        raise ValueError("eigenvalues must be nonnegative")

    scale = 1.0
    lam_max = lam.max() if n else 0.0
    if k > 0 and lam_max > 0:
        # Bound e_k <= C(n,k) * lam_max^k; rescale only if it could overflow.
        log_bound = (
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(lam_max)
        )
        if log_bound > math.log(_OVERFLOW_LIMIT):
            scale = lam_max
            lam = lam / scale

    e = np.zeros((n + 1, k + 1))
    e[:, 0] = 1.0
    for m in range(1, n + 1):
        e[m, 1:] = e[m - 1, 1:] + lam[m - 1] * e[m - 1, :-1]
    num = lam[:, None] * e[:-1, :k]
    den = e[1:, 1:]
    # Cells with e[m, kk] = 0 have kk beyond the first m's rank; no walk
    # reaches them, and a ratio of 0 keeps them from ever being picked.
    ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return ElementarySymmetricTable(e, scale, ratio)


def sample_k_batch(eig: EigenSystem, k: int, U: np.ndarray,
                   table: ElementarySymmetricTable) -> np.ndarray:
    """Draw one size-k subset per row of U; returns a sorted (B, k) array.

    Row r of U holds the n + k uniforms of one draw: n for phase one, then
    one per item of phase two.  Rows never mix, so each result depends on
    its own row of uniforms only.  Callers check k and the eigensystem's
    rank against `table`, as sample_k_dpp does.
    """
    n = eig.n
    B = U.shape[0]
    rows = np.arange(B)

    # Phase one.  A row walking m = n down to 1 with kk eigenvectors still to
    # pick keeps m when u[n - m] < lam[m-1] * e[m-1, kk-1] / e[m, kk].  Every
    # row has kk = k - t while it seeks its t-th pick, so that pick is the
    # first position after the previous one whose uniform falls below column
    # kk of the table's ratio: rows advance in lock step one pick at a time.
    # Position c of a row is its uniform u[c], which meets m = n - c.
    below = U[:, :n, None] < table.ratio[::-1, :k]
    after = np.arange(n)
    last = np.full((B, 1), -1)
    chosen = np.empty((B, k), dtype=np.intp)
    for t in range(k):
        hit = below[:, :, k - 1 - t] & (after > last)
        last = hit.argmax(axis=1)[:, None]
        if not hit[rows, last[:, 0]].all():
            raise NumericError("eigenvalue selection failed to pick k components")
        chosen[:, t:t + 1] = last

    # Phase two.  Column l of yt[r] holds item l's coordinates in row r's
    # eigenvectors (position c picks eigenvector n - 1 - c); d[r, :step] holds
    # its picks' orthonormalised coordinates.  Clamping marginals at 0 keeps
    # the cumulative sums monotone; a picked item keeps mass exactly 0.
    yt = eig.eigenvectors.T[n - 1 - chosen]
    marg = np.einsum("bjl,bjl->bl", yt, yt)
    d = np.empty((B, k, k))
    items = np.empty((B, k), dtype=np.int64)
    for step in range(k):
        p = marg.cumsum(axis=1)
        # searchsorted(p, u * p[-1], side="right"), capped at n - 1.
        i = (p[:, :-1] <= U[:, n + step, None] * p[:, -1:]).sum(axis=1)
        items[:, step] = i
        if step == k - 1:
            break
        c = yt[rows, :, i]
        c -= np.einsum("bs,bsj->bj", np.einsum("bsj,bj->bs", d[:, :step], c), d[:, :step])
        norm = np.sqrt(np.einsum("bj,bj->b", c, c))
        if not norm.all():
            raise NumericError("orthogonal complement collapsed during sampling")
        d[:, step] = c / norm[:, None]
        marg -= np.matmul(d[:, step, None], yt)[:, 0] ** 2
        np.maximum(marg, 0.0, out=marg)
        marg[rows, i] = 0.0

    items.sort(axis=1)
    if not (np.diff(items, axis=1) > 0).all():
        raise NumericError("projection sampling did not return k distinct items")
    return items


def sample_k_dpp(eig: EigenSystem, k: int, rng: np.random.Generator,
                 table: ElementarySymmetricTable | None = None) -> DppSample:
    """Draw one size-k subset from the fixed-cardinality DPP given by eig.

    `table` may carry a precomputed elementary-symmetric table for this
    (eigenvalues, k) pair; searches reuse one table across iterations.
    Requires at least k strictly positive eigenvalues.  The draw uses the
    next n + k uniforms of `rng` and equals one row of sample_k_batch.
    """
    n = eig.n
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if int(np.count_nonzero(eig.eigenvalues > 0)) < k:
        raise RankDeficientError(f"rank deficient: fewer than {k} positive eigenvalues")
    if table is None:
        table = elementary_table(eig.eigenvalues, k)
    elif table.n != n or table.k < k:
        raise ValueError("elementary table does not match this eigensystem")

    return DppSample(sample_k_batch(eig, k, rng.random((1, n + k)), table)[0])


def subset_log_dets(K: KernelMatrix, k: int, budget: int):
    """Every size-k subset of K's sites in lexicographic order, as chunks
    of an (m, k) index array and the m log-determinants (-inf where not
    positive); k must be in [1, n] and C(n, k) at most budget."""
    n = K.dim
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    total = math.comb(n, k)
    if total > budget:
        raise CombinatorialBudgetError(f"budget exceeded: C({n},{k}) = {total} > {budget}")
    it = itertools.combinations(range(n), k)
    while block := list(itertools.islice(it, 100_000)):
        combos = np.array(block, dtype=np.intp)
        sign, logdet = np.linalg.slogdet(K.entries[combos[:, :, None], combos[:, None, :]])
        logdet[sign <= 0] = -np.inf
        yield combos, logdet


def exact_k_dpp_pmf(K: KernelMatrix, k: int) -> dict:
    """Exact subset probabilities det(K[Y]) / sum over |Y'| = k of det(K[Y']).

    Full enumeration; guarded at C(n, k) <= 1e6 subsets.
    """
    subsets = []
    logdets = []
    for combos, ld in subset_log_dets(K, k, _PMF_BUDGET):
        subsets.extend(map(tuple, combos.tolist()))
        logdets.append(ld)
    ld = np.concatenate(logdets)
    top = ld.max()
    if not np.isfinite(top):
        raise NumericError("all principal minors are singular")
    w = np.exp(ld - top)
    w /= w.sum()
    return dict(zip(subsets, w.tolist()))

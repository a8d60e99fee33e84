import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppdesign import (
    DesignSubset,
    InputFormatError,
    KernelMatrix,
    SingularSubmatrixError,
    design_subset,
    eigendecompose,
    load_kernel,
    log_det_submatrix,
    save_kernel,
    synth_kernel,
)
from conftest import BYTE_EDITS, cofactor_det, mutate, random_pd_kernel


class TestKernelMatrix:
    def test_symmetrizes_roundtrip_noise(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]])
        K = KernelMatrix(a)
        assert np.array_equal(K.entries, K.entries.T)

    def test_rejects_real_asymmetry(self):
        with pytest.raises(InputFormatError, match="symmetric"):
            KernelMatrix([[1.0, 0.9], [0.1, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InputFormatError, match="non-square"):
            KernelMatrix(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(InputFormatError):
            KernelMatrix(np.zeros((0, 0)))

    def test_label_length_checked(self):
        with pytest.raises(InputFormatError, match="labels"):
            KernelMatrix(np.eye(2), labels=["a"])

    def test_entries_read_only(self):
        K = KernelMatrix(np.eye(3))
        with pytest.raises(ValueError):
            K.entries[0, 0] = 2.0


class TestLoadSave:
    def test_identity_csv(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0,1\n")
        K = load_kernel(p)
        assert K.dim == 2
        assert np.array_equal(K.entries, np.eye(2))

    def test_whitespace_format(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2 1\n1 2\n")
        assert load_kernel(p).entries[0, 1] == 1.0

    def test_unequal_rows_is_non_square(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0,1,2\n")
        with pytest.raises(InputFormatError, match="non-square"):
            load_kernel(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,x\n0,1\n")
        with pytest.raises(InputFormatError, match="non-numeric"):
            load_kernel(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(InputFormatError, match="empty"):
            load_kernel(p)

    def test_tridiagonal_is_pd(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("2,1,0\n1,2,1\n0,1,2\n")
        K = load_kernel(p)
        assert K.dim == 3
        # eigenvalues of tridiag(1,2,1) at n=3 are 2 and 2 +/- sqrt(2)
        w = eigendecompose(K).eigenvalues
        assert np.allclose(w, [2 + math.sqrt(2), 2.0, 2 - math.sqrt(2)])
        assert w.min() > 0

    def test_labels_roundtrip(self, tmp_path):
        p = tmp_path / "m.csv"
        K = KernelMatrix(np.eye(2), labels=["a", "b"])
        save_kernel(K, p)
        back = load_kernel(p)
        assert back.labels == ("a", "b")
        assert np.array_equal(back.entries, K.entries)

    def test_seventeen_digit_roundtrip(self, tmp_path):
        K = random_pd_kernel(5, seed=11)
        p = tmp_path / "m.csv"
        save_kernel(K, p)
        assert np.array_equal(load_kernel(p).entries, K.entries)


class TestLogDetSubmatrix:
    def test_identity_is_zero(self):
        K = KernelMatrix(np.eye(5))
        assert log_det_submatrix(K, [0, 2, 4]) == 0.0

    def test_diagonal_product(self):
        K = KernelMatrix(np.diag([2.0, 3.0, 5.0]))
        assert log_det_submatrix(K, [0, 2]) == pytest.approx(math.log(10), abs=1e-12)

    def test_two_by_two(self):
        K = KernelMatrix([[2.0, 1.0], [1.0, 2.0]])
        # det = 2*2 - 1*1 = 3 by cofactor expansion
        assert log_det_submatrix(K, [0, 1]) == pytest.approx(math.log(3), abs=1e-12)

    def test_singular_submatrix(self):
        K = KernelMatrix([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularSubmatrixError, match="singular"):
            log_det_submatrix(K, [0, 1])

    def test_validates_indices(self):
        K = KernelMatrix(np.eye(3))
        with pytest.raises(ValueError):
            log_det_submatrix(K, [])
        with pytest.raises(ValueError):
            log_det_submatrix(K, [0, 0])
        with pytest.raises(ValueError):
            log_det_submatrix(K, [3])
        with pytest.raises(ValueError, match="integers"):
            log_det_submatrix(K, [0, 1.5])
        with pytest.raises(ValueError, match="integers"):
            log_det_submatrix(K, np.array([True, False]))
        # numpy reads a bool among ints as 0 or 1
        for bad in ([True, 2], (1, np.True_), [[0, False]]):
            with pytest.raises(ValueError, match="integers"):
                log_det_submatrix(K, bad)
            with pytest.raises(ValueError, match="integers"):
                design_subset(K, bad)
        assert log_det_submatrix(K, np.array([0, 2], dtype=np.uint8)) == 0.0

    @given(seed=st.integers(0, 10_000), size=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_cofactor_expansion(self, seed, size):
        K = random_pd_kernel(6, seed=seed)
        rng = np.random.default_rng(seed + 1)
        idx = np.sort(rng.permutation(6)[:size])
        oracle = math.log(cofactor_det(K.entries[np.ix_(idx, idx)]))
        assert log_det_submatrix(K, idx) == pytest.approx(oracle, rel=1e-8)

    def test_never_errors_on_pd_kernel(self, pd6):
        import itertools

        for size in (1, 2, 3):
            for idx in itertools.combinations(range(6), size):
                assert np.isfinite(log_det_submatrix(pd6, idx))

    def test_permutation_invariance(self):
        K = random_pd_kernel(6, seed=9)
        rng = np.random.default_rng(5)
        perm = rng.permutation(6)
        KP = KernelMatrix(K.entries[np.ix_(perm, perm)])
        s = [1, 3, 4]
        mapped = sorted(int(np.flatnonzero(perm == i)[0]) for i in s)
        assert log_det_submatrix(KP, mapped) == pytest.approx(
            log_det_submatrix(K, s), abs=1e-10
        )


class TestEigendecompose:
    def test_identity(self):
        eig = eigendecompose(KernelMatrix(np.eye(4)))
        assert np.array_equal(eig.eigenvalues, np.ones(4))

    def test_diagonal(self):
        eig = eigendecompose(KernelMatrix(np.diag([5.0, 1.0])))
        assert np.allclose(eig.eigenvalues, [5.0, 1.0])
        assert np.allclose(np.abs(eig.eigenvectors), np.eye(2))

    def test_two_by_two(self):
        eig = eigendecompose(KernelMatrix([[2.0, 1.0], [1.0, 2.0]]))
        # characteristic polynomial (2 - t)^2 - 1 has roots 3 and 1
        assert np.allclose(eig.eigenvalues, [3.0, 1.0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reconstruction_and_orthonormality(self, seed):
        K = random_pd_kernel(8, seed=seed)
        eig = eigendecompose(K)
        v, w = eig.eigenvectors, eig.eigenvalues
        recon = (v * w) @ v.T
        assert np.abs(recon - K.entries).max() <= 1e-8 * np.abs(K.entries).max()
        assert np.abs(v.T @ v - np.eye(8)).max() <= 1e-10

    def test_descending_order(self, pd6):
        w = eigendecompose(pd6).eigenvalues
        assert np.all(np.diff(w) <= 0)


class TestSynthKernel:
    def test_one_by_one(self):
        K = synth_kernel(1, 0.5, nugget=0.25, seed=0)
        assert K.entries.shape == (1, 1)
        assert K.entries[0, 0] == pytest.approx(1.25)

    def test_same_seed_identical(self):
        a = synth_kernel(10, 0.5, 1e-6, seed=3)
        b = synth_kernel(10, 0.5, 1e-6, seed=3)
        assert np.array_equal(a.entries, b.entries)

    def test_different_seed_differs(self):
        a = synth_kernel(10, 0.5, 1e-6, seed=3)
        b = synth_kernel(10, 0.5, 1e-6, seed=4)
        assert not np.array_equal(a.entries, b.entries)

    def test_formula_at_desk_scale(self):
        K = synth_kernel(30, 0.5, 1e-6, seed=7)
        diag = np.diagonal(K.entries)
        assert np.allclose(diag, 1 + 1e-6)
        off = K.entries[~np.eye(30, dtype=bool)]
        assert off.min() > 0 and off.max() < 1

    def test_positive_definite_with_nugget(self):
        K = synth_kernel(25, 0.5, 1e-6, seed=1)
        assert eigendecompose(K).eigenvalues.min() > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_kernel(0, 0.5)
        with pytest.raises(ValueError):
            synth_kernel(3, -1.0)
        with pytest.raises(ValueError):
            synth_kernel(3, 0.5, nugget=-0.1)


class TestDesignSubset:
    def test_requires_sorted_distinct(self):
        with pytest.raises(ValueError):
            DesignSubset((2, 1), 0.0)
        with pytest.raises(ValueError):
            DesignSubset((), 0.0)

    def test_log_det_consistency(self, pd6):
        sub = design_subset(pd6, [4, 1])
        assert sub.indices == (1, 4)
        assert sub.k == 2
        ref = log_det_submatrix(pd6, [1, 4])
        assert abs(sub.log_det - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    save_kernel(KernelMatrix(synth_kernel(4, 0.5, 1e-6, seed=0).entries,
                             labels=["a", "b", "c", "d"]), d / "valid.csv")
    return d


@given(edits=BYTE_EDITS)
@settings(derandomize=True, max_examples=500, deadline=None)
def test_mutated_kernel_is_loaded_or_an_input_error(fuzz_dir, edits):
    path = fuzz_dir / "mutated.csv"
    path.write_bytes(mutate((fuzz_dir / "valid.csv").read_bytes(), edits))
    try:
        load_kernel(path)
    except InputFormatError:
        pass

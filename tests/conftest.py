import numpy as np
import pytest
from hypothesis import strategies as st

from dppdesign import KernelMatrix

# Byte edits of a valid input file: (operation, position, byte), the byte
# either one that the text formats give meaning to or any byte at all.
_BYTES = st.one_of(st.sampled_from(list(b"0123456789.eE+-,;:#\"{}[] \t\n")),
                   st.integers(0, 255))
BYTE_EDITS = st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")),
                                st.integers(0, 2**20), _BYTES), min_size=1, max_size=8)


def mutate(data: bytes, edits) -> bytes:
    """data with each (operation, position, byte) edit applied in turn;
    positions wrap around the current length."""
    out = bytearray(data)
    for op, pos, byte in edits:
        if op == "insert" or not out:
            out.insert(pos % (len(out) + 1), byte)
        elif op == "delete":
            del out[pos % len(out)]
        else:
            out[pos % len(out)] = byte
    return bytes(out)


def random_pd_kernel(n: int, seed: int, ridge: float = 0.5) -> KernelMatrix:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return KernelMatrix(a @ a.T + ridge * np.eye(n))


def cofactor_det(a) -> float:
    """Plain cofactor-expansion determinant, the independent oracle."""
    a = [list(map(float, row)) for row in a]
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * cofactor_det(minor)
    return total


@pytest.fixture
def pd6():
    return random_pd_kernel(6, seed=42)

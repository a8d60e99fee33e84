"""Counter-based random streams.

Every stochastic routine in the package derives its randomness from a
Philox generator keyed by (seed, domain, index).  Distinct indices give
statistically independent streams that can be created in any order, which
is what makes parallel search iterations reproducible: worker processes
re-derive the exact stream a sequential run would have used.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK56 = (1 << 56) - 1

# Domain tags keep unrelated consumers of the same user seed apart.
DOMAIN_SEARCH = 0
DOMAIN_JITTER = 1
DOMAIN_GA = 2


def _key(seed: int, domain: int, index: int):
    if not 0 <= domain < 256:
        raise ValueError(f"domain must be in [0, 256), got {domain}")
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    return seed & _MASK64, (domain << 56) | (index & _MASK56)


def _philox_state(w0: int, w1: int) -> dict:
    # Plain ints, so that setting the state converts no numpy scalars.
    return {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [w0, w1]},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Return a fresh Generator for stream (seed, domain, index)."""
    return StreamDealer(seed, domain).rng(index)


class StreamDealer:
    """Hands out streams for many indices while reusing one bit generator.

    rng(index) returns the same Generator object every time, reset to the
    start of stream (seed, domain, index); draws match stream() exactly.
    Only valid for strictly sequential use, as in a search loop.
    """

    def __init__(self, seed: int, domain: int):
        w0, _ = _key(seed, domain, 0)
        self._domain = domain
        self._state = _philox_state(w0, 0)
        # Philox(key=...) still gathers OS entropy for an unused seed sequence,
        # which dominates construction cost; seeding with 0 and setting the
        # whole state gives the identical stream without the entropy call.
        self._bg = np.random.Philox(seed=0)
        self._rng = np.random.Generator(self._bg)

    def rng(self, index: int) -> np.random.Generator:
        _, w1 = _key(0, self._domain, index)
        self._state["state"]["key"][1] = w1
        self._bg.state = self._state
        return self._rng

import numpy as np

from dppdesign.streams import DOMAIN_JITTER, DOMAIN_SEARCH, StreamDealer, stream


def test_dealer_resets_match_fresh_streams_in_any_order():
    for seed, domain in [(0, DOMAIN_SEARCH), (2**64 - 1, DOMAIN_JITTER)]:
        dealer = StreamDealer(seed, domain)
        for i in [1000, 0, 2**56 - 1, 2, 1, 0, 1000]:
            assert np.array_equal(dealer.rng(i).random(40), stream(seed, domain, i).random(40))

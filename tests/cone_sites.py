"""The reachability cone, site by site: the reference the layout and
engine tests check lattice's cube cells and theta's support against.  It
is written here from the cone's definition, not read from lattice."""

from itertools import product


def reachable_sites(d, k):
    """All sites reachable at step k >= 1, in lexicographic order: |x|_1 <= k
    with the parity of k."""
    for x in product(range(-k, k + 1), repeat=d):
        l1 = sum(abs(c) for c in x)
        if l1 <= k and (l1 - k) % 2 == 0:
            yield x
